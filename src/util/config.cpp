#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace oddci::util {

namespace {
std::string trim(const std::string& s) {
  auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}
}  // namespace

Config Config::parse(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("Config: missing '=' on line " +
                               std::to_string(lineno));
    }
    auto key = trim(line.substr(0, eq));
    auto value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("Config: empty key on line " +
                               std::to_string(lineno));
    }
    cfg.values_[key] = value;
  }
  return cfg;
}

Config Config::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    throw std::runtime_error("Config: cannot open " + path);
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse(ss.str());
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::contains(const std::string& key) const {
  read_.insert(key);
  return values_.count(key) > 0;
}

std::optional<std::string> Config::get(const std::string& key) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return get(key).value_or(fallback);
}

long long Config::get_int(const std::string& key, long long fallback) const {
  auto v = get(key);
  if (!v) return fallback;
  try {
    std::size_t consumed = 0;
    const long long value = std::stoll(*v, &consumed);
    if (consumed != v->size()) {
      throw std::invalid_argument("trailing characters");
    }
    return value;
  } catch (const std::exception&) {
    throw std::runtime_error("Config: non-integer value '" + *v +
                             "' for key " + key);
  }
}

double Config::get_double(const std::string& key, double fallback) const {
  auto v = get(key);
  if (!v) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(*v, &consumed);
    if (consumed != v->size()) {
      throw std::invalid_argument("trailing characters");
    }
    return value;
  } catch (const std::exception&) {
    throw std::runtime_error("Config: non-numeric value '" + *v +
                             "' for key " + key);
  }
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  auto v = get(key);
  if (!v) return fallback;
  std::string s = *v;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  throw std::runtime_error("Config: non-boolean value for key " + key);
}

std::vector<std::string> Config::unread_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) out.push_back(key);
  }
  return out;
}

std::string Config::nearest_read_key(const std::string& key) const {
  // Levenshtein distance, one row at a time.
  const auto distance = [](const std::string& a, const std::string& b) {
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      std::size_t diagonal = row[0];
      row[0] = i;
      for (std::size_t j = 1; j <= b.size(); ++j) {
        const std::size_t above = row[j];
        row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                           diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
        diagonal = above;
      }
    }
    return row[b.size()];
  };
  // A plausible typo edits at most a third of the key (and at least 2).
  std::size_t best = std::max<std::size_t>(2, key.size() / 3) + 1;
  std::string nearest;
  for (const auto& candidate : read_) {
    const std::size_t d = distance(key, candidate);
    if (d < best) {
      best = d;
      nearest = candidate;
    }
  }
  return nearest;
}

}  // namespace oddci::util
