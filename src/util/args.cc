#include "util/args.h"

#include <algorithm>
#include <cstdio>

#include "util/parse.h"

namespace seg {

namespace {

bool is_flag(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

bool parse_bool(const std::string& s, bool* out, std::string* why) {
  if (s == "true" || s == "1" || s == "yes" || s == "on") {
    *out = true;
  } else if (s == "false" || s == "0" || s == "no" || s == "off") {
    *out = false;
  } else {
    *why = "not a boolean: '" + s + "'";
    return false;
  }
  return true;
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!is_flag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--key value` if the next token is not itself a flag, else boolean.
    if (i + 1 < argc && !is_flag(argv[i + 1])) {
      values_[arg] = argv[i + 1];
      ++i;
    } else {
      values_[arg] = "true";
    }
  }
}

bool ArgParser::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string ArgParser::get_string(const std::string& key,
                                  std::string def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

template <class T>
T ArgParser::get_checked(const std::string& key, T def,
                         bool (*parse)(const std::string&, T*,
                                       std::string*)) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  T v{};
  std::string why;
  if (parse(it->second, &v, &why)) return v;
  errors_.push_back("--" + key + ": " + why);
  return def;
}

std::int64_t ArgParser::get_int(const std::string& key,
                                std::int64_t def) const {
  return get_checked(key, def, parse_i64_checked);
}

std::uint64_t ArgParser::get_u64(const std::string& key,
                                 std::uint64_t def) const {
  return get_checked(key, def, parse_u64_checked);
}

double ArgParser::get_double(const std::string& key, double def) const {
  return get_checked(key, def, parse_double_checked);
}

bool ArgParser::get_bool(const std::string& key, bool def) const {
  return get_checked(key, def, parse_bool);
}

bool ArgParser::check_usage(const std::vector<std::string>& known) const {
  bool ok = true;
  const auto report = [&ok](const std::string& problem) {
    std::fprintf(stderr, "%s\n", problem.c_str());
    ok = false;
  };
  for (const std::string& arg : positional_) {
    report("unexpected argument '" + arg + "' (see --help)");
  }
  for (const auto& [flag, value] : values_) {
    if (std::find(known.begin(), known.end(), flag) == known.end()) {
      report("unknown flag --" + flag + " (did you mean --" +
             nearest_name(flag, known) + "?)");
    }
  }
  for (const std::string& e : errors_) report(e);
  return ok;
}

}  // namespace seg
