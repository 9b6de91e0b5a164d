#include "fabric/fault.h"

#include <cstdio>

#include "common/spec_parse.h"

namespace ibsec::fabric {

std::optional<FaultCampaign> FaultCampaign::parse(std::string_view spec) {
  FaultCampaign campaign;
  for (std::string_view entry : split_list(spec, ';')) {
    if (entry.empty()) continue;
    std::string_view key, value;
    if (!split_kv(entry, key, value)) return std::nullopt;
    if (key == "seed") {
      if (!parse_u64(value, campaign.seed)) return std::nullopt;
    } else if (key == "drop") {
      if (!parse_probability(value, campaign.default_profile.drop_rate)) {
        return std::nullopt;
      }
    } else if (key == "corrupt") {
      if (!parse_probability(value, campaign.default_profile.corruption_rate)) {
        return std::nullopt;
      }
    } else if (key == "dead-switch") {
      int id = 0;
      if (!parse_int(value, id) || id < 0) return std::nullopt;
      campaign.dead_switches.push_back(id);
    } else if (key == "link") {
      // link=<name>:<subkey>=<rate>[,<subkey>=<rate>...]
      const std::size_t colon = value.find(':');
      if (colon == std::string_view::npos) return std::nullopt;
      FaultProfile& profile =
          campaign.link_overrides
              .try_emplace(std::string(value.substr(0, colon)),
                           campaign.default_profile)
              .first->second;
      for (std::string_view sub : split_list(value.substr(colon + 1), ',')) {
        std::string_view sub_key, rate;
        if (!split_kv(sub, sub_key, rate)) return std::nullopt;
        if (sub_key == "drop") {
          if (!parse_probability(rate, profile.drop_rate)) return std::nullopt;
        } else if (sub_key != "corrupt" ||
                   !parse_probability(rate, profile.corruption_rate)) {
          return std::nullopt;
        }
      }
    } else if (key == "flap") {
      // flap=<name>:<down>us-<up>us   (empty <up> = down forever)
      const std::size_t colon = value.find(':');
      if (colon == std::string_view::npos) return std::nullopt;
      const std::string_view window = value.substr(colon + 1);
      const std::size_t dash = window.find('-');
      if (dash == std::string_view::npos) return std::nullopt;
      LinkFlap flap;
      if (!parse_time_us(window.substr(0, dash), flap.down_at)) {
        return std::nullopt;
      }
      const std::string_view up = window.substr(dash + 1);
      if (!up.empty() && !parse_time_us(up, flap.up_at)) return std::nullopt;
      campaign.link_overrides
          .try_emplace(std::string(value.substr(0, colon)),
                       campaign.default_profile)
          .first->second.flaps.push_back(flap);
    } else {
      return std::nullopt;
    }
  }
  return campaign;
}

std::string FaultCampaign::describe() const {
  if (!enabled()) return "faults=off";
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "faults seed=%llu drop=%.4f corrupt=%.4f overrides=%zu "
                "dead_switches=%zu",
                static_cast<unsigned long long>(seed),
                default_profile.drop_rate, default_profile.corruption_rate,
                link_overrides.size(), dead_switches.size());
  return buf;
}

}  // namespace ibsec::fabric
