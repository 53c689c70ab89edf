#include "cesrm/cache.hpp"

namespace cesrm::cesrm {

namespace {
CacheConfig recency_config(std::size_t capacity) {
  CacheConfig config;
  config.policy = CachePolicyKind::kRecency;
  config.capacity = capacity;
  return config;
}
}  // namespace

RecoveryCache::RecoveryCache(std::size_t capacity)
    : RecoveryCache(recency_config(capacity)) {}

RecoveryCache::RecoveryCache(const CacheConfig& config, net::NodeId owner,
                             net::NodeId source)
    : kind_(config.policy),
      impl_(make_cache_policy(config, owner, source)) {}

bool RecoveryCache::update(const RecoveryTuple& tuple) {
  return impl_->update(tuple);
}

std::optional<RecoveryTuple> RecoveryCache::select(ExpeditionPolicy how,
                                                   net::SeqNo lost_seq) {
  return impl_->select(how, lost_seq);
}

std::optional<RecoveryTuple> RecoveryCache::most_recent() const {
  return impl_->most_recent();
}

std::optional<RecoveryTuple> RecoveryCache::most_frequent() const {
  return impl_->most_frequent();
}

std::size_t RecoveryCache::size() const { return impl_->size(); }

std::size_t RecoveryCache::capacity() const { return impl_->capacity(); }

std::vector<RecoveryTuple> RecoveryCache::snapshot() const {
  std::vector<RecoveryTuple> out;
  out.reserve(impl_->size());
  impl_->snapshot(&out);
  return out;
}

CacheStats RecoveryCache::stats() const { return impl_->stats(); }

}  // namespace cesrm::cesrm
