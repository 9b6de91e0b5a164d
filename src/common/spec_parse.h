// Strict token parsers shared by the four spec grammars (TopologySpec,
// WorkloadSpec, FaultCampaign, AttackCampaignSpec) and run_experiment's
// numeric flags.
//
// A spec either means exactly what it says or is rejected: every number
// parser must consume the whole token, so an empty token, trailing junk,
// leading whitespace or '+', a '-' on an unsigned value, overflow, NaN and
// infinity all fail instead of quietly running a different experiment. On
// failure `out` is left untouched.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/time.h"

namespace ibsec {

bool parse_int(std::string_view text, int& out);
bool parse_u64(std::string_view text, std::uint64_t& out);
/// Finite values only.
bool parse_double(std::string_view text, double& out);
/// A probability: a double within [0, 1].
bool parse_probability(std::string_view text, double& out);

/// A non-negative count of `ps_per_unit`-picosecond units ("2.5" with 1e6
/// is 2.5 us), truncated to whole picoseconds. Rejects values whose
/// picosecond count would not fit SimTime (casting such a double is UB).
bool parse_time(std::string_view text, double ps_per_unit, SimTime& out);
/// "123us" (or a bare number, read as microseconds) into picoseconds.
bool parse_time_us(std::string_view text, SimTime& out);

/// Splits a `sep`-separated list. Empty text gives no items; otherwise every
/// piece is kept, empty ones included, so each grammar decides whether
/// "a,,b" or a trailing separator is an error.
std::vector<std::string_view> split_list(std::string_view text, char sep);
/// Splits "key=value" at the first '='; false when there is none.
bool split_kv(std::string_view token, std::string_view& key,
              std::string_view& value);

}  // namespace ibsec
