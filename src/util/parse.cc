#include "util/parse.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace seg {
namespace {

void set_error(std::string* error, const std::string& token,
               const char* what) {
  if (error) *error = std::string(what) + ": '" + token + "'";
}

}  // namespace

bool parse_i64_checked(const std::string& token, std::int64_t* out,
                       std::string* error) {
  if (token.empty()) {
    set_error(error, token, "empty integer");
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    set_error(error, token, "not an integer");
    return false;
  }
  if (errno == ERANGE) {
    set_error(error, token, "integer out of range");
    return false;
  }
  *out = value;
  return true;
}

bool parse_u64_checked(const std::string& token, std::uint64_t* out,
                       std::string* error) {
  if (token.empty()) {
    set_error(error, token, "empty integer");
    return false;
  }
  // strtoull accepts "-1" and wraps it; a leading '-' (after optional
  // whitespace-free token start) is always a caller error here.
  if (token[0] == '-') {
    set_error(error, token, "negative value for unsigned field");
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    set_error(error, token, "not an integer");
    return false;
  }
  if (errno == ERANGE) {
    set_error(error, token, "integer out of range");
    return false;
  }
  *out = value;
  return true;
}

bool parse_int_checked(const std::string& token, int* out,
                       std::string* error) {
  std::int64_t wide = 0;
  if (!parse_i64_checked(token, &wide, error)) return false;
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    set_error(error, token, "integer out of range");
    return false;
  }
  *out = static_cast<int>(wide);
  return true;
}

bool parse_double_checked(const std::string& token, double* out,
                          std::string* error) {
  if (token.empty()) {
    set_error(error, token, "empty number");
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    set_error(error, token, "not a number");
    return false;
  }
  if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL)) {
    set_error(error, token, "number out of range");
    return false;
  }
  if (!std::isfinite(value)) {
    set_error(error, token, "number is not finite");
    return false;
  }
  *out = value;
  return true;
}

std::string nearest_name(const std::string& token,
                         const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_distance = std::numeric_limits<std::size_t>::max();
  for (const std::string& name : candidates) {
    // Optimal-string-alignment distance: Levenshtein plus adjacent
    // transpositions, so "shrads" is one edit from "shards".
    const std::size_t rows = token.size() + 1, cols = name.size() + 1;
    std::vector<std::size_t> d(rows * cols);
    for (std::size_t i = 0; i < rows; ++i) d[i * cols] = i;
    for (std::size_t j = 0; j < cols; ++j) d[j] = j;
    for (std::size_t i = 1; i < rows; ++i) {
      for (std::size_t j = 1; j < cols; ++j) {
        const bool same = token[i - 1] == name[j - 1];
        std::size_t v = std::min({d[(i - 1) * cols + j] + 1,
                                  d[i * cols + j - 1] + 1,
                                  d[(i - 1) * cols + j - 1] + !same});
        if (i > 1 && j > 1 && token[i - 1] == name[j - 2] &&
            token[i - 2] == name[j - 1]) {
          v = std::min(v, d[(i - 2) * cols + j - 2] + 1);
        }
        d[i * cols + j] = v;
      }
    }
    if (d.back() < best_distance) {
      best_distance = d.back();
      best = name;
    }
  }
  return best;
}

}  // namespace seg
