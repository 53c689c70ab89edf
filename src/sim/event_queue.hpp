// event_queue.hpp — the simulator's pending-event set.
//
// A 4-ary implicit min-heap ordered by (time, tag, schedule sequence) so
// that events scheduled for the same tick fire in FIFO order — a property
// the SRM suppression logic relies on for determinism. The middle `tag`
// key is 0 for every plainly-scheduled event, so the default order is the
// historical (time, sequence) FIFO exactly; the sharded parallel engine
// schedules cross-shard arrivals through schedule_tagged() with a
// deterministic ⟨origin location, per-location counter⟩ tag so that
// same-instant ties resolve identically for any shard count (the schedule
// *sequence* is a per-queue artifact of execution interleaving and cannot
// be used across shards). Callbacks live in a generation-tagged slot pool:
// an EventId encodes ⟨generation, slot⟩, so cancel() and is_pending() are
// two array reads and a tag compare — no hashing, no per-event allocation
// (the callback's captures sit inline in the slot via InlineFunction).
// Cancellation stays lazy: the heap entry of a cancelled event is skipped
// at pop time when its generation tag no longer matches the slot. This
// keeps cancel() O(1), which matters because SRM suppression cancels a
// large fraction of all scheduled timers, and frees the cancelled
// callback's captures immediately.
//
// FIFO lanes. Packet arrivals on one directed link are scheduled in key
// order already (the link's busy horizon never decreases), so a flood
// backlog need not sit in the heap. A lane event is not a closure but a
// (key, 8-byte word) pair: add_lanes() reserves a block of lanes for one
// LaneClient, schedule_in_lane() appends a word to its lane, and the heap
// holds only each lane's head, under the head's own (time, tag, sequence)
// key; popping a head hands its word to the client's fire() and sifts the
// lane's next key in. An event whose key does not sort after its lane's
// tail (delay jitter, a duplicated crossing) goes to the heap instead
// under the same key, wrapped in a one-shot closure, so every
// lane stays sorted and the pop order is exactly the one a single heap
// would produce. A word the queue releases unfired — pending at
// destruction, or a popped callback destroyed uncalled — goes to the
// client's drop() exactly once, so words may own memory. Lane storage is
// one shared pool of fixed-size chunks, 32 bytes per pending event.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace cesrm::sim {

/// Identifier for a scheduled event; valid ids are non-zero. Encodes the
/// pool slot (low 32 bits) and its generation tag (high 32 bits).
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// The owner of a block of lanes (EventQueue::add_lanes): what a lane
/// event's word means. fire(ctx, lane, word) runs the event; drop(word)
/// releases a word that will never fire. Both must be non-null.
struct LaneClient {
  void (*fire)(void* ctx, std::uint32_t lane, std::uint64_t word) = nullptr;
  void (*drop)(std::uint64_t word) = nullptr;
  void* ctx = nullptr;
};

/// Min-heap of (time, callback) with O(1) allocation-free cancellation
/// and per-lane FIFOs of words for in-order event streams. The schedule/
/// cancel/pop hot path is defined inline below the class — every packet
/// hop goes through it, so cross-TU call overhead matters. Callbacks are
/// taken by rvalue reference: a closure is relocated once into storage
/// and once out of it.
class EventQueue {
 public:
  using Callback = InlineFunction;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  /// Drops every lane word still pending (heap-kept words drop with
  /// their closures).
  ~EventQueue();

  /// Schedules `cb` at absolute time `when`; returns its id. Ties at the
  /// same instant fire in schedule order (tag 0, FIFO).
  EventId schedule(SimTime when, Callback&& cb) {
    return schedule_tagged(when, 0, std::move(cb));
  }

  /// Schedules `cb` at `when` with an explicit ordering tag. Among events
  /// at the same instant, lower tags fire first (tag 0 — every plain
  /// schedule() — before all tagged events); equal tags fall back to
  /// schedule order. Tags let the sharded engine impose an execution-
  /// independent total order on cross-shard arrivals.
  EventId schedule_tagged(SimTime when, std::uint64_t tag, Callback&& cb);

  /// Reserves `count` consecutive lanes owned by `client` and returns the
  /// first lane id of the block. Blocks never overlap, so independent
  /// clients (two networks on one simulator) keep their streams apart.
  std::uint32_t add_lanes(std::uint32_t count, const LaneClient& client);

  /// Schedules a non-cancellable event at `when` with ordering tag `tag`
  /// on reserved lane `lane`: at its turn, `word` goes to the lane
  /// client's fire(). Fires exactly where schedule_tagged() would have
  /// placed it; the lane only saves heap work when successive events of
  /// one lane arrive in key order (the caller's promise for the common
  /// case, checked per event — an out-of-order word is kept in the heap
  /// instead).
  void schedule_in_lane(std::uint32_t lane, SimTime when, std::uint64_t tag,
                        std::uint64_t word);

  /// Cancels a pending event. Returns true if it was still pending;
  /// cancelling an already-fired or unknown id returns false.
  bool cancel(EventId id);

  /// True while `id` is scheduled and has neither fired nor been cancelled.
  bool is_pending(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    if (slot >= slot_count_) return false;
    const Slot& s = slot_at(slot);
    return s.live && s.gen == gen_of(id);
  }

  /// True if no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }
  /// Number of live pending events (lane events included).
  std::size_t size() const { return live_; }

  /// Time of the earliest live event; infinity() when empty.
  SimTime next_time() {
    drop_stale_top();
    return heap_.empty() ? SimTime::infinity() : heap_.front().key.when;
  }

  /// Pops the earliest live event; fills `when`/`cb`/`id` (id is
  /// kInvalidEventId for a lane event, which has none; its `cb` hands the
  /// word to the lane client). Returns false when the queue is empty.
  bool pop(SimTime& when, Callback& cb, EventId& id) {
    drop_stale_top();
    if (heap_.empty()) return false;
    const HeapEntry& top = heap_.front();
    id = top.gen == kLaneGen ? kInvalidEventId
                             : (static_cast<EventId>(top.gen) << 32) | top.slot;
    take_top(when, cb);
    return true;
  }

  /// Pops the earliest live event if its time is strictly before `end`;
  /// fills `when`/`cb`. Returns false (popping nothing) otherwise.
  bool pop_before(SimTime end, SimTime& when, Callback& cb) {
    drop_stale_top();
    if (heap_.empty() || !(heap_.front().key.when < end)) return false;
    take_top(when, cb);
    return true;
  }

  /// Total events ever scheduled (diagnostics / micro-benchmarks).
  std::uint64_t scheduled_total() const { return scheduled_; }
  /// Total events cancelled before firing.
  std::uint64_t cancelled_total() const { return cancelled_; }
  /// Largest number of simultaneously-pending events seen so far.
  std::size_t high_water() const { return high_water_; }
  /// Largest number of heap entries seen so far: lane heads, events kept
  /// off the lanes and cancelled entries not yet skipped. Lane events
  /// behind a head do not count, so this sits below high_water() when
  /// lanes carry the backlog.
  std::size_t heap_high_water() const { return heap_high_water_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// HeapEntry::gen of a lane head (slot then holds the lane index); slot
  /// generations are never 0.
  static constexpr std::uint32_t kLaneGen = 0;

  struct Slot {
    Callback cb;
    std::uint32_t gen = 1;        ///< bumped on free; 0 is never valid
    std::uint32_t next_free = kNoSlot;
    bool live = false;
  };

  /// Pop order: (when, tag, seq), compared lexicographically.
  struct Key {
    SimTime when;
    std::uint64_t tag;  ///< cross-shard deterministic tie-break (0 = FIFO)
    std::uint64_t seq;  ///< monotonic schedule order — final tie-break
  };

  struct HeapEntry {
    Key key;
    std::uint32_t slot;  ///< slot index, or lane index when gen == kLaneGen
    std::uint32_t gen;
  };

  /// A block of kLaneChunk consecutive lane events. Keys and words are
  /// kept apart so the tail-order check reads only keys.
  static constexpr std::uint32_t kLaneChunk = 16;
  struct LaneChunk {
    Key key[kLaneChunk];
    std::uint64_t word[kLaneChunk];
    LaneChunk* next = nullptr;
  };

  /// One FIFO: events head->key[head_idx] .. tail->key[tail_idx - 1].
  /// `head` is null while the lane is empty.
  struct Lane {
    LaneChunk* head = nullptr;
    LaneChunk* tail = nullptr;
    std::uint32_t head_idx = 0;
    std::uint32_t tail_idx = 0;
    LaneClient client;
  };

  /// A lane word outside its lane — popped into the caller's callback or
  /// kept in the heap: fires once, and drops the word if destroyed
  /// unfired.
  struct LaneEvent {
    LaneClient client;
    std::uint64_t word;
    std::uint32_t lane;
    bool armed = true;

    LaneEvent(const LaneClient& c, std::uint32_t l, std::uint64_t w)
        : client(c), word(w), lane(l) {}
    LaneEvent(LaneEvent&& o) noexcept
        : client(o.client), word(o.word), lane(o.lane), armed(o.armed) {
      o.armed = false;
    }
    LaneEvent& operator=(LaneEvent&&) = delete;
    ~LaneEvent() {
      if (armed) client.drop(word);
    }
    void operator()() {
      armed = false;
      client.fire(client.ctx, lane, word);
    }
  };

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.key.when != b.key.when) return a.key.when < b.key.when;
    if (a.key.tag != b.key.tag) return a.key.tag < b.key.tag;
    return a.key.seq < b.key.seq;
  }

  /// True when the heap entry still refers to a live event: a lane head,
  /// or a slot not freed and reissued since the entry was pushed.
  bool entry_live(const HeapEntry& e) const {
    if (e.gen == kLaneGen) return true;
    const Slot& s = slot_at(e.slot);
    return s.live && s.gen == e.gen;
  }

  /// Slots live in fixed-size chunks so growth never relocates a Slot
  /// (relocation would run InlineFunction move ctors for the whole pool).
  static constexpr std::uint32_t kChunkShift = 10;  // 1024 slots per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  Slot& slot_at(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }
  const Slot& slot_at(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }

  void push_heap(const HeapEntry& e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
    if (heap_.size() > heap_high_water_) heap_high_water_ = heap_.size();
  }
  void remove_top() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
  void count_scheduled() {
    ++scheduled_;
    ++live_;
    if (live_ > high_water_) high_water_ = live_;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void drop_stale_top();
  void take_top(SimTime& when, Callback& cb);
  void free_slot(std::uint32_t slot);
  LaneChunk* alloc_lane_chunk();
  void free_lane_chunk(LaneChunk* c) {
    c->next = free_lane_chunks_;
    free_lane_chunks_ = c;
  }

  std::vector<HeapEntry> heap_;  ///< 4-ary implicit heap
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::vector<Lane> lanes_;  ///< indexed by lane id, grown by add_lanes
  /// Owns every lane chunk ever allocated; idle ones sit on the free list.
  std::vector<std::unique_ptr<LaneChunk>> lane_chunks_;
  LaneChunk* free_lane_chunks_ = nullptr;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t high_water_ = 0;
  std::size_t heap_high_water_ = 0;
};

// ---- hot path, kept inline (header) for cross-TU inlining ----

inline EventId EventQueue::schedule_tagged(SimTime when, std::uint64_t tag,
                                           Callback&& cb) {
  CESRM_CHECK_MSG(cb != nullptr, "null event callback");
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slot_at(slot).next_free;
  } else {
    slot = slot_count_++;
    if ((slot >> kChunkShift) == chunks_.size())
      chunks_.push_back(std::make_unique<Slot[]>(std::size_t{1}
                                                 << kChunkShift));
  }
  Slot& s = slot_at(slot);
  s.cb = std::move(cb);
  s.live = true;

  push_heap(HeapEntry{Key{when, tag, next_seq_++}, slot, s.gen});
  count_scheduled();
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

inline void EventQueue::schedule_in_lane(std::uint32_t lane, SimTime when,
                                         std::uint64_t tag,
                                         std::uint64_t word) {
  CESRM_CHECK_MSG(lane < lanes_.size(), "lane " << lane << " not reserved");
  Lane& l = lanes_[lane];
  if (l.head != nullptr) {
    // The new key's sequence is the largest yet, so it sorts after the
    // tail unless its (time, tag) is smaller.
    const Key& tail = l.tail->key[l.tail_idx - 1];
    if (when < tail.when || (when == tail.when && tag < tail.tag)) {
      schedule_tagged(when, tag, LaneEvent(l.client, lane, word));
      return;
    }
    if (l.tail_idx == kLaneChunk) {
      LaneChunk* c = alloc_lane_chunk();
      l.tail->next = c;
      l.tail = c;
      l.tail_idx = 0;
    }
  } else {
    l.head = l.tail = alloc_lane_chunk();
    l.head_idx = l.tail_idx = 0;
    push_heap(HeapEntry{Key{when, tag, next_seq_}, lane, kLaneGen});
  }
  l.tail->key[l.tail_idx] = Key{when, tag, next_seq_++};
  l.tail->word[l.tail_idx] = word;
  ++l.tail_idx;
  count_scheduled();
}

inline EventQueue::LaneChunk* EventQueue::alloc_lane_chunk() {
  if (LaneChunk* c = free_lane_chunks_) {
    free_lane_chunks_ = c->next;
    c->next = nullptr;
    return c;
  }
  lane_chunks_.push_back(std::make_unique<LaneChunk>());
  return lane_chunks_.back().get();
}

inline bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slot_count_) return false;
  Slot& s = slot_at(slot);
  if (!s.live || s.gen != gen_of(id)) return false;
  free_slot(slot);  // the heap entry goes stale and is skipped at pop time
  --live_;
  ++cancelled_;
  return true;
}

inline void EventQueue::free_slot(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  s.cb.reset();  // release captures eagerly, not at heap-drain time
  s.live = false;
  if (++s.gen == 0) s.gen = 1;  // 0 must never appear in a valid id
  s.next_free = free_head_;
  free_head_ = slot;
}

inline void EventQueue::sift_up(std::size_t i) {
  HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

inline void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  HeapEntry e = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c)
      if (earlier(heap_[c], heap_[best])) best = c;
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

inline void EventQueue::drop_stale_top() {
  while (!heap_.empty() && !entry_live(heap_.front())) remove_top();
}

/// Removes the (live) heap top's event and moves its callback into `cb`
/// (for a lane head, a LaneEvent carrying the head's word). A lane head
/// is replaced in place by the lane's next key, if any.
inline void EventQueue::take_top(SimTime& when, Callback& cb) {
  HeapEntry& top = heap_.front();
  when = top.key.when;
  --live_;
  if (top.gen != kLaneGen) {
    const std::uint32_t slot = top.slot;
    remove_top();
    cb = std::move(slot_at(slot).cb);
    free_slot(slot);
    return;
  }
  Lane& l = lanes_[top.slot];
  LaneChunk* c = l.head;
  cb = LaneEvent(l.client, top.slot, c->word[l.head_idx++]);
  if (c == l.tail && l.head_idx == l.tail_idx) {  // lane drained
    l.head = l.tail = nullptr;
    free_lane_chunk(c);
    remove_top();
    return;
  }
  if (l.head_idx == kLaneChunk) {
    l.head = c->next;
    l.head_idx = 0;
    free_lane_chunk(c);
  }
  top.key = l.head->key[l.head_idx];
  sift_down(0);
  // The new top is almost always the next pop: start loading its lane's
  // word and following key while this event runs.
  const HeapEntry& next = heap_.front();
  if (next.gen == kLaneGen) {
    const Lane& nl = lanes_[next.slot];
    __builtin_prefetch(&nl.head->word[nl.head_idx]);
    __builtin_prefetch(&nl.head->key[nl.head_idx] + 1);
  }
}

inline std::uint32_t EventQueue::add_lanes(std::uint32_t count,
                                           const LaneClient& client) {
  CESRM_CHECK_MSG(client.fire != nullptr && client.drop != nullptr,
                  "lane client needs fire and drop");
  const auto first = static_cast<std::uint32_t>(lanes_.size());
  Lane lane;
  lane.client = client;
  lanes_.resize(lanes_.size() + count, lane);
  return first;
}

inline EventQueue::~EventQueue() {
  for (const Lane& l : lanes_) {
    if (l.head == nullptr) continue;
    for (const LaneChunk* c = l.head;; c = c->next) {
      const std::uint32_t begin = c == l.head ? l.head_idx : 0;
      const std::uint32_t end = c == l.tail ? l.tail_idx : kLaneChunk;
      for (std::uint32_t i = begin; i < end; ++i) l.client.drop(c->word[i]);
      if (c == l.tail) break;
    }
  }
}

}  // namespace cesrm::sim
