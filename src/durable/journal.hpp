// journal.hpp — CRC-framed record log for durable recovery state.
//
// The durable store (store.hpp) persists three kinds of per-agent recovery
// state: the per-stream sequence horizon, the RecoveryCache tuples, and
// the reply-dedup ledger (which ⟨source, seq, requestor⟩ retransmissions
// this member already served). Rather than invent a new serialization,
// every record's payload *is* one canonical wire frame (src/wire): the
// codec already gives each protocol datum a versioned, canonical,
// adversarially-hardened byte encoding, and reusing it means the journal
// inherits the fuzz-tested decoder for free.
//
// Record framing (little-endian), designed so that a torn tail, a stomped
// byte, or a truncated write is *detected and cleanly discarded* — the
// scanner trusts only the longest valid prefix and never lets a damaged
// record reach protocol state:
//
//   offset  size  field
//   0       2     magic 0xCE4A ("CESRM JournAl")
//   2       1     journal version (1)
//   3       1     record kind (RecordKind)
//   4       4     payload length L (bounded by kMaxRecordPayload)
//   8       L     payload: one wire frame of payload_type(kind)
//   8+L     4     CRC-32 (wire::crc32) over bytes [0, 8+L)
//
// scan() walks records front to back and stops at the first defect,
// returning the records of the valid prefix plus a diagnosis of why it
// stopped. Replay is idempotent (horizons max-merge, ledger entries and
// cache tuples are set-like), so duplicated or reordered *valid* records
// are accepted — corruption degrades warm recovery toward cold recovery,
// never into a crash or corrupted protocol state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.hpp"

namespace cesrm::durable {

/// What a journal record describes. The numeric values are the on-disk
/// encoding — append only, never renumber.
enum class RecordKind : std::uint8_t {
  /// Sequence horizon: a SESSION frame whose stream adverts say "this
  /// stream is known to extend to highest_seq".
  kHorizon = 1,
  /// One RecoveryCache tuple: a REPLY frame carrying the full
  /// ⟨i, q, d̂qs, r, d̂rq⟩ annotation (+ turning point).
  kCacheTuple = 2,
  /// Reply-dedup ledger entry: a REQUEST frame recording that this member
  /// served a multicast SRM reply for ⟨source, seq⟩ to ann.requestor.
  kReplyServed = 3,
  /// Same ledger entry for the expedited path: an EXP-REQUEST frame.
  kExpReplyServed = 4,
};
inline constexpr std::uint8_t kMinRecordKind = 1;
inline constexpr std::uint8_t kMaxRecordKind = 4;

const char* record_kind_name(RecordKind kind);

/// The wire frame type a record of `kind` must carry as payload.
net::PacketType payload_type(RecordKind kind);

/// Why a scan stopped. Everything except kClean means the journal's tail
/// was discarded from the failing record onward.
enum class ScanDiagnosis : std::uint8_t {
  kClean = 0,     ///< every byte consumed by valid records
  kTornTail,      ///< bytes ran out mid-record (torn/partial write)
  kBadMagic,      ///< record does not start with 0xCE4A
  kBadVersion,    ///< journal version this build does not understand
  kBadKind,       ///< kind byte outside [kMinRecordKind, kMaxRecordKind]
  kBadLength,     ///< payload length exceeds kMaxRecordPayload
  kBadCrc,        ///< checksum mismatch (bit rot / stomped bytes)
  kBadPayload,    ///< CRC ok but payload is not a valid frame of the
                  ///< kind's type (only reachable via a colliding CRC or
                  ///< a buggy writer — still handled, never trusted)
};
inline constexpr int kScanDiagnosisCount = 8;

const char* scan_diagnosis_name(ScanDiagnosis d);

/// One decoded journal record.
struct Record {
  RecordKind kind = RecordKind::kHorizon;
  net::Packet packet;
};

/// The valid prefix of a journal plus why scanning stopped.
struct ScanResult {
  std::vector<Record> records;
  /// Length of the valid prefix; bytes beyond it must be discarded.
  std::size_t valid_bytes = 0;
  ScanDiagnosis diagnosis = ScanDiagnosis::kClean;
  /// Where the failing record starts (== valid_bytes), kept separate for
  /// symmetry with wire::DecodeError reporting.
  std::size_t error_offset = 0;

  bool clean() const { return diagnosis == ScanDiagnosis::kClean; }
};

inline constexpr std::uint16_t kJournalMagic = 0xCE4A;
inline constexpr std::uint8_t kJournalVersion = 1;
inline constexpr std::size_t kRecordHeaderBytes = 8;
inline constexpr std::size_t kRecordTrailerBytes = 4;
/// Sanity bound on one record's payload; real payloads are small control
/// frames (tens of bytes), so anything near this is already suspect.
inline constexpr std::uint32_t kMaxRecordPayload = 64 * 1024;

/// Appends the framed encoding of one record to `out`. `payload` must be
/// a packet of payload_type(kind) obeying the wire construction
/// invariants (the store only writes packets built by the net helpers).
void append_record(RecordKind kind, const net::Packet& payload,
                   std::vector<std::uint8_t>* out);

/// Appends the horizon record "`node` knows `source`'s stream up to
/// `highest`": the bytes of append_record(kHorizon, …) with a one-stream
/// session frame from `node`, encoded without building that frame.
void append_horizon_record(net::NodeId node, net::NodeId source,
                           net::SeqNo highest,
                           std::vector<std::uint8_t>* out);

/// Walks `bytes` record by record, stopping at the first defect. Never
/// throws, never reads out of bounds, never trusts a damaged record.
ScanResult scan(std::span<const std::uint8_t> bytes);

}  // namespace cesrm::durable
