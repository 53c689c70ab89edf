// policy.hpp — expeditious requestor/replier selection policies (§3.2).
//
// Upon detecting a loss, the receiver consults its cache to pick the pair
// that will attempt the expedited recovery. The paper defines two
// policies and evaluates with MOST_RECENT (which its trace analysis found
// superior, and which only needs a cache of one entry):
//
//  * kMostRecent  — the optimal pair of the most recent recovered loss;
//  * kMostFrequent — the pair appearing most often in the cache.
//
// The ExpeditionPolicy enum itself lives in cache_policy.hpp (the cache
// policies dispatch on it); this header keeps the spelling helpers and
// the cache-level selector.
#pragma once

#include <optional>
#include <string>

#include "cesrm/cache.hpp"

namespace cesrm::cesrm {

const char* policy_name(ExpeditionPolicy policy);

/// The accepted spellings, comma-joined — for error messages and --help.
const char* policy_names();

/// Parses "most-recent" / "most-frequent"; nullopt otherwise.
std::optional<ExpeditionPolicy> try_parse_policy(const std::string& name);

/// Parses "most-recent" / "most-frequent"; throws util::CheckError with a
/// message listing the valid spellings otherwise (the CLI front-ends catch
/// it and print `error: ...` instead of a stack of CHECK noise).
ExpeditionPolicy parse_policy(const std::string& name);

/// Applies `policy` to `cache`; nullopt when the cache is empty. Purely
/// read-only — no stats (the fault oracle uses this on live caches it
/// must not perturb; the agent's selection path goes through
/// RecoveryCache::select instead).
std::optional<RecoveryTuple> select_pair(const RecoveryCache& cache,
                                         ExpeditionPolicy policy);

}  // namespace cesrm::cesrm
