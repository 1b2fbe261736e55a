// Checked numeric parsing for every user-facing token (scenario specs,
// CLI flags, edge lists). The raw strtol/strtoll calls these replace had
// two silent failure modes: trailing garbage ("10x" parsed as 10) and
// out-of-range values (errno/ERANGE never inspected, so overflow wrapped
// or saturated quietly). Every helper here consumes the WHOLE token,
// checks ERANGE, and on failure writes a message naming the offending
// token into *error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace seg {

// Signed 64-bit. Rejects empty tokens, trailing garbage, and overflow.
bool parse_i64_checked(const std::string& token, std::int64_t* out,
                       std::string* error = nullptr);

// Unsigned 64-bit. Also rejects leading '-': strtoull happily wraps
// "-1" to 2^64-1, which is never what a replica count meant.
bool parse_u64_checked(const std::string& token, std::uint64_t* out,
                       std::string* error = nullptr);

// int-ranged convenience over parse_i64_checked.
bool parse_int_checked(const std::string& token, int* out,
                       std::string* error = nullptr);

// Finite double. Rejects trailing garbage and ERANGE overflow to
// +/-HUGE_VAL (subnormal underflow is accepted as the rounded value).
bool parse_double_checked(const std::string& token, double* out,
                          std::string* error = nullptr);

// The candidate closest to `token` by edit distance (first on ties; ""
// for no candidates). Unknown spec keys and CLI flags name it as the
// "did you mean" suggestion.
std::string nearest_name(const std::string& token,
                         const std::vector<std::string>& candidates);

}  // namespace seg
