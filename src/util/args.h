// A tiny, dependency-free CLI argument parser used by the examples and
// bench harnesses. Accepts `--key=value`, `--key value` and boolean
// `--flag` forms; everything else is collected as a positional argument.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace seg {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  // Typed getters with defaults. Malformed values ("10x", overflow, a
  // boolean outside true/false/1/0/yes/no/on/off) fall back to the
  // default AND record a message in errors();
  // harnesses that care check errors() after reading their flags and
  // refuse to run, instead of silently proceeding with a default the
  // user never asked for.
  std::string get_string(const std::string& key, std::string def = "") const;
  std::int64_t get_int(const std::string& key, std::int64_t def = 0) const;
  // Non-negative count; "-1" is an error, not a wrap to 2^64 - 1.
  std::uint64_t get_u64(const std::string& key, std::uint64_t def = 0) const;
  double get_double(const std::string& key, double def = 0.0) const;
  bool get_bool(const std::string& key, bool def = false) const;

  // One "--key: <reason>: '<token>'" line per malformed value seen by the
  // typed getters above, in call order.
  const std::vector<std::string>& errors() const { return errors_; }

  // Every `--key` seen (without the dashes) and its raw value, for
  // callers that dispatch on or reject flags they do not know.
  const std::map<std::string, std::string>& flags() const { return values_; }

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program_name() const { return program_; }

 private:
  // The raw value of `key` run through `parse`; `def` when absent or
  // malformed (the latter logged to errors_).
  template <class T>
  T get_checked(const std::string& key, T def,
                bool (*parse)(const std::string&, T*, std::string*)) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  // Getters are const accessors of parse-time state; the error log is
  // bookkeeping they append to lazily.
  mutable std::vector<std::string> errors_;
};

}  // namespace seg
