// protocol.hpp — the one protocol-selection enum of the repository.
//
// Every layer that picks a loss-recovery protocol — the application-facing
// api::SessionConfig, the trace-driven harness::ExperimentConfig, the
// bench sweeps and the CLI — selects from this single enum, which also
// covers the LMS baseline of §3.3/§5 (run by the simulated experiment
// pipeline only: it needs router replier state). (It used to be
// duplicated as api::Transport and harness::Protocol; the ns-3/ccns3Sim
// experience is that a reusable simulator reproduction needs exactly one
// such switch, shared by the session API and the experiment harness.)
#pragma once

#include <optional>
#include <string>

#include "util/enum_names.hpp"

namespace cesrm {

/// Which protocol recovers losses for a member / an experiment.
enum class Protocol { kSrm, kCesrm, kLms };

/// Human-readable name, as used in tables, reports, and JSON output.
constexpr const char* protocol_name(Protocol p) {
  constexpr const char* kNames[] = {"SRM", "CESRM", "LMS"};
  return kNames[static_cast<int>(p)];
}

namespace detail {
inline constexpr util::EnumNames<Protocol, 3> kProtocolNames{
    "protocol",
    {{{Protocol::kSrm, "srm"},
      {Protocol::kCesrm, "cesrm"},
      {Protocol::kLms, "lms"}}}};
}  // namespace detail

/// The accepted CLI spellings ("srm", "cesrm", "lms"), comma-joined.
inline const char* protocol_names() {
  static const std::string joined = detail::kProtocolNames.joined_names();
  return joined.c_str();
}

/// Parses "srm" / "cesrm" / "lms"; nullopt otherwise.
inline std::optional<Protocol> try_parse_protocol(const std::string& name) {
  return detail::kProtocolNames.try_parse(name);
}

/// Parses "srm" / "cesrm" / "lms"; throws util::CheckError listing the
/// valid spellings otherwise.
inline Protocol parse_protocol(const std::string& name) {
  return detail::kProtocolNames.parse(name);
}

}  // namespace cesrm
