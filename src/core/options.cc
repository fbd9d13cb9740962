#include "src/core/options.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace lmb {

namespace {

// Locale-independent strict parses: the whole string must be consumed and
// the value must be finite.  std::stod honors LC_NUMERIC (under a
// comma-decimal locale "1.5" parses as 1) and both stod/stoll skip leading
// whitespace — neither is acceptable for option values.
bool parse_full_int(const std::string& text, std::int64_t& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto res = std::from_chars(begin, end, out);
  return res.ec == std::errc() && res.ptr == end;
}

bool parse_full_double(const std::string& text, double& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto res = std::from_chars(begin, end, out);
  // from_chars accepts "inf"/"nan" spellings; no option means that.
  return res.ec == std::errc() && res.ptr == end && std::isfinite(out);
}

}  // namespace

Options Options::parse(int argc, const char* const* argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      auto eq = body.find('=');
      if (eq == std::string::npos) {
        if (body.empty()) {
          throw std::invalid_argument("bare '--' is not a valid option");
        }
        opts.values_[body] = "true";
      } else {
        std::string key = body.substr(0, eq);
        if (key.empty()) {
          throw std::invalid_argument("malformed option: " + arg);
        }
        opts.values_[key] = body.substr(eq + 1);
      }
    } else {
      opts.positionals_.push_back(arg);
    }
  }
  return opts;
}

Options Options::from_pairs(std::initializer_list<std::pair<std::string, std::string>> kv) {
  Options opts;
  for (const auto& [k, v] : kv) {
    opts.values_[k] = v;
  }
  return opts;
}

bool Options::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Options::get_string(const std::string& key, const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  std::int64_t v = 0;
  if (!parse_full_int(it->second, v)) {
    throw std::invalid_argument("option --" + key + " is not an integer: '" + it->second + "'");
  }
  return v;
}

double Options::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  double v = 0.0;
  if (!parse_full_double(it->second, v)) {
    throw std::invalid_argument("option --" + key + " is not a number: '" + it->second + "'");
  }
  return v;
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  throw std::invalid_argument("option --" + key + " is not a boolean: " + v);
}

std::int64_t Options::get_size(const std::string& key, std::int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  return parse_size(it->second);
}

std::vector<std::string> Options::get_list(const std::string& key,
                                           std::vector<std::string> fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  try {
    return split_list(it->second);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("option --" + key + " is not a comma list: '" + it->second +
                                "'");
  }
}

void Options::set(const std::string& key, const std::string& value) { values_[key] = value; }

std::vector<std::string> Options::split_list(const std::string& text) {
  std::vector<std::string> out;
  if (text.empty()) {
    return out;
  }
  size_t pos = 0;
  for (;;) {
    size_t comma = text.find(',', pos);
    std::string item =
        text.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (item.empty()) {
      throw std::invalid_argument("empty element in list: '" + text + "'");
    }
    out.push_back(std::move(item));
    if (comma == std::string::npos) {
      return out;
    }
    pos = comma + 1;
  }
}

std::int64_t Options::parse_size(const std::string& text) {
  if (text.empty()) {
    throw std::invalid_argument("empty size");
  }
  const char* begin = text.data();
  const char* end = begin + text.size();
  std::int64_t v = 0;
  auto res = std::from_chars(begin, end, v);
  if (res.ec != std::errc() || res.ptr == begin) {
    throw std::invalid_argument("malformed size: " + text);
  }
  if (v < 0) {
    throw std::invalid_argument("negative size: " + text);
  }
  size_t pos = static_cast<size_t>(res.ptr - begin);
  if (pos == text.size()) {
    return v;
  }
  // Exactly one suffix character is allowed; "4kZZ" is garbage, not 4k.
  if (pos + 1 != text.size()) {
    throw std::invalid_argument("malformed size: " + text);
  }
  std::int64_t multiplier = 0;
  switch (std::tolower(static_cast<unsigned char>(text[pos]))) {
    case 'k':
      multiplier = std::int64_t{1} << 10;
      break;
    case 'm':
      multiplier = std::int64_t{1} << 20;
      break;
    case 'g':
      multiplier = std::int64_t{1} << 30;
      break;
    default:
      throw std::invalid_argument("unknown size suffix: " + text);
  }
  if (v > std::numeric_limits<std::int64_t>::max() / multiplier) {
    throw std::invalid_argument("size out of range: " + text);
  }
  return v * multiplier;
}

}  // namespace lmb
