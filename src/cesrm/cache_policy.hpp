// cache_policy.hpp — the pluggable cache-policy surface behind
// RecoveryCache (§3.1 generalized into a laboratory).
//
// The paper fixes one requestor/replier cache design: keep the optimal
// tuple per packet, evict by packet recency. This header factors the
// storage / replacement / lookup decisions into a CachePolicy interface
// so the paper's scheme can be compared against two reference variants:
//
//   recency     — the paper's scheme, bit-exact with the legacy cache;
//   sharded     — per-subtree sub-caches (keyed by the tuple's turning
//                 point), each running recency over its capacity share;
//   oracle      — upper bound: indexes tuples by the *true* injected
//                 loss link (from the synthetic trace) and answers a
//                 lookup for a new loss with the tuple cached for that
//                 exact link.
//
// The oracle reads its out-of-band knowledge through CacheSideInfo, which
// the harness implements on top of infer::LinkTraceRepresentation;
// without side info it degrades to recency behavior. DESIGN.md §11 has
// the measurements that ruled out other replacement rules (LRU, LFU, TTL,
// §4.2 confidence).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/ids.hpp"
#include "net/packet.hpp"

namespace cesrm::cesrm {

/// Expeditious pair-selection policies (§3.2): which cached tuple steers
/// the expedited recovery of a fresh loss.
enum class ExpeditionPolicy {
  kMostRecent,
  kMostFrequent,
};

/// One cached recovery tuple ⟨i, q, d̂qs, r, d̂rq⟩ (+ turning point for the
/// router-assisted variant of §3.3).
struct RecoveryTuple {
  net::SeqNo seq = net::kNoSeq;
  net::NodeId requestor = net::kInvalidNode;
  double dist_requestor_source = 0.0;  ///< d̂qs, seconds
  net::NodeId replier = net::kInvalidNode;
  double dist_replier_requestor = 0.0;  ///< d̂rq, seconds
  net::NodeId turning_point = net::kInvalidNode;

  /// The optimality objective of §3.1: d̂qs + 2·d̂rq.
  double recovery_delay() const {
    return dist_requestor_source + 2.0 * dist_replier_requestor;
  }

  static RecoveryTuple from_annotation(net::SeqNo seq,
                                       const net::RecoveryAnnotation& ann) {
    RecoveryTuple t;
    t.seq = seq;
    t.requestor = ann.requestor;
    t.dist_requestor_source = ann.dist_requestor_source;
    t.replier = ann.replier;
    t.dist_replier_requestor = ann.dist_replier_requestor;
    t.turning_point = ann.turning_point;
    return t;
  }
};

enum class CachePolicyKind {
  kRecency,  ///< legacy §3.1 behavior (the default)
  kSharded,
  kOracle,
};

inline constexpr std::array<CachePolicyKind, 3> kAllCachePolicyKinds = {
    CachePolicyKind::kRecency,
    CachePolicyKind::kSharded,
    CachePolicyKind::kOracle,
};

const char* cache_policy_name(CachePolicyKind kind);
/// The accepted spellings, comma-joined — for error messages and --help.
const char* cache_policy_names();
std::optional<CachePolicyKind> try_parse_cache_policy(
    const std::string& name);
/// Throws util::CheckError listing the valid spellings on bad input.
CachePolicyKind parse_cache_policy(const std::string& name);

/// True for policies that are pointless without CacheSideInfo (oracle):
/// they degrade to recency behavior when none is installed.
/// Front ends use this to fail fast with a friendly message in contexts
/// that cannot provide side info, instead of silently degrading (or
/// crashing deep in a factory).
bool cache_policy_needs_side_info(CachePolicyKind kind);
/// The side-info-requiring policy names, comma-joined — for messages.
const char* cache_policies_needing_side_info();

/// Out-of-band knowledge for the oracle policy. The harness backs this
/// with the synthetic trace's link representation
/// (infer::LinkTraceRepresentation); the default makes the oracle degrade
/// gracefully when nothing is known.
class CacheSideInfo {
 public:
  virtual ~CacheSideInfo() = default;

  /// The true injected link responsible for `observer` losing
  /// (`source`, `seq`); kInvalidLink when the packet was received or the
  /// truth is unknown.
  virtual net::LinkId drop_link(net::NodeId observer, net::NodeId source,
                                net::SeqNo seq) const {
    (void)observer;
    (void)source;
    (void)seq;
    return net::kInvalidLink;
  }
};

/// Everything a RecoveryCache needs to instantiate its policy.
struct CacheConfig {
  CachePolicyKind policy = CachePolicyKind::kRecency;
  /// Per-source cache capacity, >= 1 (shared across shards for kSharded).
  std::size_t capacity = 16;
  /// kSharded: number of per-subtree sub-caches, >= 1.
  std::size_t shards = 4;
  /// Non-owning; must outlive the caches. Consulted by kOracle (null →
  /// it degrades to recency behavior).
  const CacheSideInfo* side_info = nullptr;
};

/// Cache-effectiveness counters, aggregated per cache and summed per host
/// into HostStats / the MetricsRegistry.
struct CacheStats {
  std::uint64_t hits = 0;        ///< selections that produced a pair
  std::uint64_t misses = 0;      ///< selections from an empty/dry cache
  std::uint64_t insertions = 0;  ///< tuples newly admitted
  std::uint64_t updates = 0;     ///< same-packet tuples improved in place
  std::uint64_t evictions = 0;   ///< tuples displaced by replacement
  std::uint64_t rejects = 0;     ///< update attempts refused admission

  CacheStats& operator+=(const CacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    insertions += o.insertions;
    updates += o.updates;
    evictions += o.evictions;
    rejects += o.rejects;
    return *this;
  }
};

/// The storage / replacement / lookup strategy behind a RecoveryCache.
/// One instance serves one (host, source-stream) cache. Implementations
/// own their storage; the base class owns validation and hit/miss
/// accounting so every policy counts identically.
class CachePolicy {
 public:
  explicit CachePolicy(std::size_t capacity) : capacity_(capacity) {}
  virtual ~CachePolicy() = default;

  CachePolicy(const CachePolicy&) = delete;
  CachePolicy& operator=(const CachePolicy&) = delete;

  /// §3.1 update on a reply for a packet this host lost. Returns true if
  /// the cache changed.
  bool update(const RecoveryTuple& tuple);

  /// Applies the expedition policy for a fresh loss of `lost_seq`;
  /// nullopt when the cache has nothing to offer. Counts hits/misses.
  std::optional<RecoveryTuple> select(ExpeditionPolicy how,
                                      net::SeqNo lost_seq);

  /// Read-only §3.2 selectors (no stats) — used by diagnostics and the
  /// fault oracle, which must not perturb the cache.
  virtual std::optional<RecoveryTuple> most_recent() const = 0;
  virtual std::optional<RecoveryTuple> most_frequent() const = 0;

  virtual std::size_t size() const = 0;
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size() == 0; }

  /// Appends all cached tuples to `out` in packet order (oldest first).
  virtual void snapshot(std::vector<RecoveryTuple>* out) const = 0;

  virtual CacheStats stats() const { return stats_; }

 protected:
  virtual bool do_update(const RecoveryTuple& tuple) = 0;
  virtual std::optional<RecoveryTuple> do_select(ExpeditionPolicy how,
                                                 net::SeqNo lost_seq) = 0;

  std::size_t capacity_;
  CacheStats stats_;
};

/// Instantiates the policy selected by `config` for the cache that
/// `owner` keeps for `source`'s stream (the identities feed side-info
/// lookups; pass kInvalidNode when unused).
std::unique_ptr<CachePolicy> make_cache_policy(
    const CacheConfig& config, net::NodeId owner = net::kInvalidNode,
    net::NodeId source = net::kInvalidNode);

}  // namespace cesrm::cesrm
