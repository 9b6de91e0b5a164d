#include "common/spec_parse.h"

#include <charconv>
#include <cmath>

namespace ibsec {

namespace {

template <class T>
bool parse_whole(std::string_view text, T& out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  out = value;
  return true;
}

}  // namespace

bool parse_int(std::string_view text, int& out) {
  return parse_whole(text, out);
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  return parse_whole(text, out);
}

bool parse_double(std::string_view text, double& out) {
  double value = 0;
  if (!parse_whole(text, value) || !std::isfinite(value)) return false;
  out = value;
  return true;
}

bool parse_probability(std::string_view text, double& out) {
  double p = 0;
  if (!parse_double(text, p) || p < 0 || p > 1) return false;
  out = p;
  return true;
}

bool parse_time(std::string_view text, double ps_per_unit, SimTime& out) {
  double units = 0;
  if (!parse_double(text, units)) return false;
  // 9e18 ps stays below INT64_MAX (~9.22e18) with margin for rounding.
  if (units < 0 || units > 9.0e18 / ps_per_unit) return false;
  out = static_cast<SimTime>(units * ps_per_unit);
  return true;
}

bool parse_time_us(std::string_view text, SimTime& out) {
  if (text.size() >= 2 && text.substr(text.size() - 2) == "us") {
    text.remove_suffix(2);
  }
  return parse_time(text, 1e6, out);
}

std::vector<std::string_view> split_list(std::string_view text, char sep) {
  std::vector<std::string_view> items;
  if (text.empty()) return items;
  while (true) {
    const std::size_t at = text.find(sep);
    items.push_back(text.substr(0, at));
    if (at == std::string_view::npos) return items;
    text.remove_prefix(at + 1);
  }
}

bool split_kv(std::string_view token, std::string_view& key,
              std::string_view& value) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos) return false;
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

}  // namespace ibsec
