#include "common/interval.h"

#include <cmath>
#include <cstdio>

namespace asf {

namespace {

std::string FormatEndpoint(Value v) {
  if (v == kInf) return "inf";
  if (v == -kInf) return "-inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

std::string Interval::ToString() const {
  if (empty_) return "[empty]";
  // Appended piecewise: GCC 12 misreads `"[" + std::string` as an
  // overlapping copy (-Wrestrict).
  std::string out = "[";
  out += FormatEndpoint(lo_);
  out += ", ";
  out += FormatEndpoint(hi_);
  out += "]";
  return out;
}

}  // namespace asf
