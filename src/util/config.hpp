#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

/// Tiny `key = value` configuration parser used by the examples to make
/// scenario parameters editable without recompiling. Supports comments
/// (`#`), blank lines, and typed getters with defaults.
namespace oddci::util {

class Config {
 public:
  Config() = default;

  /// Parse from text. Throws std::runtime_error on malformed lines.
  static Config parse(const std::string& text);
  /// Parse a file; throws std::runtime_error if unreadable.
  static Config load(const std::string& path);

  void set(const std::string& key, const std::string& value);

  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] long long get_int(const std::string& key,
                                  long long fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return values_;
  }

  /// Keys that are set but that no getter has asked for: misspelt or
  /// retired keys. Meaningful once every getter the program uses has run.
  [[nodiscard]] std::vector<std::string> unread_keys() const;
  /// The asked-for key nearest to `key` by edit distance, or "" when none
  /// is close enough to be a plausible typo.
  [[nodiscard]] std::string nearest_read_key(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
  /// Every key a getter has asked for, present or not.
  mutable std::set<std::string> read_;
};

}  // namespace oddci::util
