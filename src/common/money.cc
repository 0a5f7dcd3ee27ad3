#include "src/common/money.h"

#include <cstdio>
#include <ostream>

namespace rubberband {

std::string Money::ToString() const {
  const int64_t abs_micros = micros_ < 0 ? -micros_ : micros_;
  // Round to cents, half away from zero.
  const int64_t cents = (abs_micros + 5'000) / 10'000;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s$%lld.%02lld", micros_ < 0 ? "-" : "",
                static_cast<long long>(cents / 100), static_cast<long long>(cents % 100));
  return buf;
}

std::ostream& operator<<(std::ostream& os, Money money) { return os << money.ToString(); }

}  // namespace rubberband
