#include "util/env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/strings.h"

namespace gred {

namespace {

[[noreturn]] void DieInvalid(const char* name, const char* value,
                             const char* expected) {
  std::fprintf(stderr, "[env] invalid %s=\"%s\": expected %s\n", name, value,
               expected);
  std::exit(2);
}

}  // namespace

std::size_t EnvSizeOrDie(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  std::optional<std::size_t> parsed = strings::ParsePositiveSize(value);
  if (!parsed.has_value()) DieInvalid(name, value, "a positive integer");
  return *parsed;
}

std::uint64_t EnvCountOrDie(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  // "0" is a meaningful setting (off), which ParsePositiveSize rejects;
  // everything else must still be a clean unsigned integer.
  std::string v(value);
  if (v == "0") return 0;
  std::optional<std::size_t> parsed = strings::ParsePositiveSize(v);
  if (!parsed.has_value()) DieInvalid(name, value, "a non-negative integer");
  return static_cast<std::uint64_t>(*parsed);
}

double EnvRateOrDie(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(value, &end);
  // Written as !(in range) so NaN, which fails every comparison, dies.
  if (errno != 0 || end == value || *end != '\0' ||
      !(parsed >= 0.0 && parsed <= 1.0)) {
    DieInvalid(name, value, "a number in [0, 1]");
  }
  return parsed;
}

bool EnvFlagOrDie(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  std::string v(value);
  if (v == "0") return false;
  if (v == "1") return true;
  DieInvalid(name, value, "0 or 1");
}

}  // namespace gred
