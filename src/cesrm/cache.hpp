// cache.hpp — the per-source optimal requestor/replier cache (§3.1).
//
// Each receiver caches, for its most recent losses, the requestor/replier
// pair that carried out the recovery, as tuples ⟨i, q, d̂qs, r, d̂rq⟩.
// When several pairs recover the same packet the cache keeps only the
// *optimal* one — the pair minimizing the recovery-delay objective
// d̂qs + 2·d̂rq (preferring requestors close to the source and repliers
// that answer fast).
//
// Storage, replacement and lookup are delegated to a pluggable
// CachePolicy (cache_policy.hpp). The default — and the paper's scheme —
// is recency: a full cache drops the tuple of the least recent packet,
// and replies for packets older than everything cached are ignored.
// RecoveryCache is the stable facade the protocol agent, the fault
// oracle and the tests talk to; it never exposes policy storage.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "cesrm/cache_policy.hpp"
#include "net/ids.hpp"
#include "net/packet.hpp"

namespace cesrm::cesrm {

class RecoveryCache {
 public:
  /// `capacity` >= 1; runs the default recency policy. The
  /// most-recent-loss policy only ever reads the newest entry, so
  /// capacity 1 suffices for it; larger capacities serve the
  /// most-frequent policy and the cache-size ablation.
  explicit RecoveryCache(std::size_t capacity);

  /// Full policy selection. `owner`/`source` identify whose cache for
  /// which stream this is — the side-info-driven oracle policy needs
  /// them; pass kInvalidNode when unused.
  explicit RecoveryCache(const CacheConfig& config,
                         net::NodeId owner = net::kInvalidNode,
                         net::NodeId source = net::kInvalidNode);

  /// §3.1 update on receiving a reply for a packet this host lost:
  /// keep the optimal tuple per packet; replacement is the policy's.
  /// Returns true if the cache changed.
  bool update(const RecoveryTuple& tuple);

  /// §3.2 selection for a fresh loss of `lost_seq`: applies the
  /// expedition policy through the cache policy (which may use the lost
  /// sequence — the oracle does) and counts the hit or miss in stats().
  std::optional<RecoveryTuple> select(ExpeditionPolicy how,
                                      net::SeqNo lost_seq);

  /// The tuple of the most recent recovered loss; nullopt when empty.
  /// Read-only: no stats (diagnostics-safe).
  std::optional<RecoveryTuple> most_recent() const;

  /// The tuple of the (q, r) pair appearing most frequently among cached
  /// tuples; ties break toward the more recent packet. nullopt when empty.
  std::optional<RecoveryTuple> most_frequent() const;

  std::size_t size() const;
  std::size_t capacity() const;
  bool empty() const { return size() == 0; }

  /// Cached tuples in packet order (oldest first); for tests and
  /// diagnostics. A copy — policy storage is never exposed.
  std::vector<RecoveryTuple> snapshot() const;

  CachePolicyKind policy_kind() const { return kind_; }
  CacheStats stats() const;

 private:
  CachePolicyKind kind_;
  std::unique_ptr<CachePolicy> impl_;
};

}  // namespace cesrm::cesrm
