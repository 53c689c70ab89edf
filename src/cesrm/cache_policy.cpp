#include "cesrm/cache_policy.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "util/check.hpp"
#include "util/enum_names.hpp"

namespace cesrm::cesrm {

namespace {

constexpr util::EnumNames<CachePolicyKind, 3> kCachePolicyNames{
    "cache policy",
    {{{CachePolicyKind::kRecency, "recency"},
      {CachePolicyKind::kSharded, "sharded"},
      {CachePolicyKind::kOracle, "oracle"}}}};

/// The §3.2 most-frequent selector over tuples listed in packet order
/// (oldest first): the (q, r) pair appearing most often wins, ties break
/// toward the more recent packet — identical to the legacy cache.
std::optional<RecoveryTuple> most_frequent_of(
    const std::vector<const RecoveryTuple*>& by_seq) {
  if (by_seq.empty()) return std::nullopt;
  std::map<std::pair<net::NodeId, net::NodeId>,
           std::pair<std::size_t, const RecoveryTuple*>>
      counts;
  for (const RecoveryTuple* tuple : by_seq) {
    auto& slot = counts[{tuple->requestor, tuple->replier}];
    ++slot.first;
    slot.second = tuple;  // by_seq is seq-ascending → ends most recent
  }
  const RecoveryTuple* best = nullptr;
  std::size_t best_count = 0;
  net::SeqNo best_seq = -1;
  for (const auto& [pair, slot] : counts) {
    const auto& [count, tuple] = slot;
    if (count > best_count || (count == best_count && tuple->seq > best_seq)) {
      best_count = count;
      best = tuple;
      best_seq = tuple->seq;
    }
  }
  CESRM_CHECK(best != nullptr);
  return *best;
}

std::optional<RecoveryTuple> dispatch(const CachePolicy& policy,
                                      ExpeditionPolicy how) {
  switch (how) {
    case ExpeditionPolicy::kMostRecent: return policy.most_recent();
    case ExpeditionPolicy::kMostFrequent: return policy.most_frequent();
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// recency — the paper's §3.1 scheme, bit-exact with the legacy cache:
// optimal tuple per packet, evict the least recent packet, ignore replies
// for packets older than everything cached.

class RecencyPolicy : public CachePolicy {
 public:
  explicit RecencyPolicy(std::size_t capacity) : CachePolicy(capacity) {}

  std::optional<RecoveryTuple> most_recent() const override {
    if (entries_.empty()) return std::nullopt;
    return entries_.rbegin()->second;
  }

  std::optional<RecoveryTuple> most_frequent() const override {
    std::vector<const RecoveryTuple*> by_seq;
    by_seq.reserve(entries_.size());
    for (const auto& [seq, tuple] : entries_) by_seq.push_back(&tuple);
    return most_frequent_of(by_seq);
  }

  std::size_t size() const override { return entries_.size(); }

  void snapshot(std::vector<RecoveryTuple>* out) const override {
    for (const auto& [seq, tuple] : entries_) out->push_back(tuple);
  }

 protected:
  bool do_update(const RecoveryTuple& tuple) override {
    if (auto it = entries_.find(tuple.seq); it != entries_.end()) {
      // Already cached: keep the optimal pair for this packet.
      if (tuple.recovery_delay() < it->second.recovery_delay()) {
        it->second = tuple;
        ++stats_.updates;
        return true;
      }
      ++stats_.rejects;
      return false;
    }
    if (entries_.size() >= capacity_) {
      // Full: ignore packets less recent than everything cached;
      // otherwise evict the least recent packet's tuple.
      const auto oldest = entries_.begin();
      if (tuple.seq < oldest->first) {
        ++stats_.rejects;
        return false;
      }
      entries_.erase(oldest);
      ++stats_.evictions;
    }
    entries_.emplace(tuple.seq, tuple);
    ++stats_.insertions;
    return true;
  }

  std::optional<RecoveryTuple> do_select(ExpeditionPolicy how,
                                         net::SeqNo) override {
    return dispatch(*this, how);
  }

  std::map<net::SeqNo, RecoveryTuple> entries_;  // keyed by packet seq
};

// ---------------------------------------------------------------------------
// sharded — per-subtree sub-caches: tuples are routed by their turning
// point (the router under which the recovery localized; requestor when no
// turning point is known) into one of N recency shards splitting the
// capacity, so a hot subtree cannot monopolize the whole cache.

class ShardedPolicy final : public CachePolicy {
 public:
  ShardedPolicy(std::size_t capacity, std::size_t shards)
      : CachePolicy(capacity) {
    CESRM_CHECK(shards >= 1);
    // Every shard needs capacity >= 1; distribute the total exactly so
    // the sum of shard capacities equals the configured capacity.
    const std::size_t n = std::min(shards, capacity);
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      shards_.push_back(std::make_unique<RecencyPolicy>(
          capacity / n + (i < capacity % n ? 1 : 0)));
  }

  std::optional<RecoveryTuple> most_recent() const override {
    std::optional<RecoveryTuple> best;
    for (const auto& shard : shards_)
      if (auto t = shard->most_recent(); t && (!best || t->seq > best->seq))
        best = t;
    return best;
  }

  std::optional<RecoveryTuple> most_frequent() const override {
    std::vector<RecoveryTuple> all;
    all.reserve(size());
    for (const auto& shard : shards_) shard->snapshot(&all);
    std::sort(all.begin(), all.end(),
              [](const RecoveryTuple& a, const RecoveryTuple& b) {
                return a.seq < b.seq;
              });
    std::vector<const RecoveryTuple*> by_seq;
    by_seq.reserve(all.size());
    for (const auto& t : all) by_seq.push_back(&t);
    return most_frequent_of(by_seq);
  }

  std::size_t size() const override {
    std::size_t n = 0;
    for (const auto& shard : shards_) n += shard->size();
    return n;
  }

  void snapshot(std::vector<RecoveryTuple>* out) const override {
    std::vector<RecoveryTuple> all;
    all.reserve(size());
    for (const auto& shard : shards_) shard->snapshot(&all);
    std::sort(all.begin(), all.end(),
              [](const RecoveryTuple& a, const RecoveryTuple& b) {
                return a.seq < b.seq;
              });
    out->insert(out->end(), all.begin(), all.end());
  }

  CacheStats stats() const override {
    CacheStats total = stats_;  // hits/misses land on this object
    for (const auto& shard : shards_) total += shard->stats();
    return total;
  }

 protected:
  bool do_update(const RecoveryTuple& tuple) override {
    return shards_[shard_of(tuple)]->update(tuple);
  }

  std::optional<RecoveryTuple> do_select(ExpeditionPolicy how,
                                         net::SeqNo) override {
    return dispatch(*this, how);
  }

 private:
  std::size_t shard_of(const RecoveryTuple& tuple) const {
    const net::NodeId key = tuple.turning_point != net::kInvalidNode
                                ? tuple.turning_point
                                : tuple.requestor;
    return static_cast<std::size_t>(key) % shards_.size();
  }

  std::vector<std::unique_ptr<RecencyPolicy>> shards_;
};

// ---------------------------------------------------------------------------
// oracle — the upper bound: tuples are additionally indexed by the *true*
// injected link that caused the loss they recovered (ground truth from
// the synthetic trace, never available to a real protocol). A lookup for
// a fresh loss first asks which link really dropped it and answers with
// the tuple cached for that exact link; only when that link has no cached
// recovery does it fall back to the §3.2 selector. Storage and
// replacement are recency's own — the oracle adds only the link index —
// so the gap to the recency row isolates how much better a cache could
// possibly steer expedited recoveries.

class OraclePolicy final : public RecencyPolicy {
 public:
  OraclePolicy(std::size_t capacity, const CacheSideInfo* side,
               net::NodeId owner, net::NodeId source)
      : RecencyPolicy(capacity), side_(side), owner_(owner), source_(source) {}

 protected:
  bool do_update(const RecoveryTuple& tuple) override {
    const bool fresh = !entries_.contains(tuple.seq);
    if (!RecencyPolicy::do_update(tuple)) return false;
    if (!fresh) return true;  // improved in place: the index is unchanged
    // An admission may have evicted the oldest tuple; unindex it.
    std::erase_if(by_link_, [this](const auto& link_seq) {
      return !entries_.contains(link_seq.second);
    });
    if (side_) {
      const net::LinkId link = side_->drop_link(owner_, source_, tuple.seq);
      if (link != net::kInvalidLink) by_link_[link] = tuple.seq;
    }
    return true;
  }

  std::optional<RecoveryTuple> do_select(ExpeditionPolicy how,
                                         net::SeqNo lost_seq) override {
    if (side_ && lost_seq != net::kNoSeq) {
      const net::LinkId link = side_->drop_link(owner_, source_, lost_seq);
      if (const auto it = by_link_.find(link); it != by_link_.end())
        return entries_.at(it->second);
    }
    return dispatch(*this, how);
  }

 private:
  const CacheSideInfo* side_;
  net::NodeId owner_;
  net::NodeId source_;
  /// Most recent cached seq whose loss the keyed link truly caused.
  std::map<net::LinkId, net::SeqNo> by_link_;
};

}  // namespace

const char* cache_policy_name(CachePolicyKind kind) {
  return kCachePolicyNames.name(kind);
}

const char* cache_policy_names() {
  static const std::string joined = kCachePolicyNames.joined_names();
  return joined.c_str();
}

std::optional<CachePolicyKind> try_parse_cache_policy(
    const std::string& name) {
  return kCachePolicyNames.try_parse(name);
}

CachePolicyKind parse_cache_policy(const std::string& name) {
  return kCachePolicyNames.parse(name);
}

bool cache_policy_needs_side_info(CachePolicyKind kind) {
  return kind == CachePolicyKind::kOracle;
}

const char* cache_policies_needing_side_info() { return "oracle"; }

bool CachePolicy::update(const RecoveryTuple& tuple) {
  CESRM_CHECK(tuple.seq >= 0);
  CESRM_CHECK(tuple.requestor != net::kInvalidNode);
  CESRM_CHECK(tuple.replier != net::kInvalidNode);
  return do_update(tuple);
}

std::optional<RecoveryTuple> CachePolicy::select(ExpeditionPolicy how,
                                                 net::SeqNo lost_seq) {
  auto picked = do_select(how, lost_seq);
  if (picked)
    ++stats_.hits;
  else
    ++stats_.misses;
  return picked;
}

std::unique_ptr<CachePolicy> make_cache_policy(const CacheConfig& config,
                                               net::NodeId owner,
                                               net::NodeId source) {
  CESRM_CHECK(config.capacity >= 1);
  switch (config.policy) {
    case CachePolicyKind::kRecency:
      return std::make_unique<RecencyPolicy>(config.capacity);
    case CachePolicyKind::kSharded:
      return std::make_unique<ShardedPolicy>(config.capacity, config.shards);
    case CachePolicyKind::kOracle:
      return std::make_unique<OraclePolicy>(config.capacity, config.side_info,
                                            owner, source);
  }
  throw util::CheckError("unhandled cache policy kind");
}

}  // namespace cesrm::cesrm
