#include "durable/journal.hpp"

#include "util/check.hpp"
#include "wire/codec.hpp"
#include "wire/crc32.hpp"

namespace cesrm::durable {
namespace {

void put_u16(std::uint16_t v, std::vector<std::uint8_t>* out) {
  out->push_back(static_cast<std::uint8_t>(v & 0xFF));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::uint32_t v, std::vector<std::uint8_t>* out) {
  out->push_back(static_cast<std::uint8_t>(v & 0xFF));
  out->push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out->push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out->push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
}

std::uint16_t get_u16(std::span<const std::uint8_t> b, std::size_t at) {
  return static_cast<std::uint16_t>(b[at] | (b[at + 1] << 8));
}

std::uint32_t get_u32(std::span<const std::uint8_t> b, std::size_t at) {
  return static_cast<std::uint32_t>(b[at]) |
         (static_cast<std::uint32_t>(b[at + 1]) << 8) |
         (static_cast<std::uint32_t>(b[at + 2]) << 16) |
         (static_cast<std::uint32_t>(b[at + 3]) << 24);
}

}  // namespace

const char* record_kind_name(RecordKind kind) {
  switch (kind) {
    case RecordKind::kHorizon: return "horizon";
    case RecordKind::kCacheTuple: return "cache_tuple";
    case RecordKind::kReplyServed: return "reply_served";
    case RecordKind::kExpReplyServed: return "exp_reply_served";
  }
  return "?";
}

net::PacketType payload_type(RecordKind kind) {
  switch (kind) {
    case RecordKind::kHorizon: return net::PacketType::kSession;
    case RecordKind::kCacheTuple: return net::PacketType::kReply;
    case RecordKind::kReplyServed: return net::PacketType::kRequest;
    case RecordKind::kExpReplyServed: return net::PacketType::kExpRequest;
  }
  return net::PacketType::kData;
}

const char* scan_diagnosis_name(ScanDiagnosis d) {
  switch (d) {
    case ScanDiagnosis::kClean: return "clean";
    case ScanDiagnosis::kTornTail: return "torn_tail";
    case ScanDiagnosis::kBadMagic: return "bad_magic";
    case ScanDiagnosis::kBadVersion: return "bad_version";
    case ScanDiagnosis::kBadKind: return "bad_kind";
    case ScanDiagnosis::kBadLength: return "bad_length";
    case ScanDiagnosis::kBadCrc: return "bad_crc";
    case ScanDiagnosis::kBadPayload: return "bad_payload";
  }
  return "?";
}

namespace {

/// Frames the payload `encode(out)` appends as one record of `kind`.
template <class Encode>
void append_framed(RecordKind kind, Encode&& encode,
                   std::vector<std::uint8_t>* out) {
  const std::size_t start = out->size();
  put_u16(kJournalMagic, out);
  out->push_back(kJournalVersion);
  out->push_back(static_cast<std::uint8_t>(kind));
  const std::size_t len_at = out->size();
  put_u32(0, out);  // payload length back-patched below
  const std::size_t payload_at = out->size();
  encode(out);
  const std::size_t payload_len = out->size() - payload_at;
  CESRM_CHECK_MSG(payload_len <= kMaxRecordPayload,
                  "journal record payload too large");
  (*out)[len_at] = static_cast<std::uint8_t>(payload_len & 0xFF);
  (*out)[len_at + 1] = static_cast<std::uint8_t>((payload_len >> 8) & 0xFF);
  (*out)[len_at + 2] = static_cast<std::uint8_t>((payload_len >> 16) & 0xFF);
  (*out)[len_at + 3] = static_cast<std::uint8_t>((payload_len >> 24) & 0xFF);
  const std::uint32_t crc = wire::crc32(
      std::span<const std::uint8_t>(out->data() + start, out->size() - start));
  put_u32(crc, out);
}

}  // namespace

void append_record(RecordKind kind, const net::Packet& payload,
                   std::vector<std::uint8_t>* out) {
  CESRM_CHECK_MSG(payload.type == payload_type(kind),
                  "journal record payload type mismatch");
  append_framed(
      kind,
      [&payload](std::vector<std::uint8_t>* o) {
        wire::encode_packet(payload, o);
      },
      out);
}

void append_horizon_record(net::NodeId node, net::NodeId source,
                           net::SeqNo highest,
                           std::vector<std::uint8_t>* out) {
  const net::StreamAdvert advert{source, highest};
  append_framed(
      RecordKind::kHorizon,
      [&](std::vector<std::uint8_t>* o) {
        wire::encode_session(node, node, sim::SimTime::zero(), {&advert, 1},
                             {}, o);
      },
      out);
}

ScanResult scan(std::span<const std::uint8_t> bytes) {
  ScanResult result;
  std::size_t pos = 0;
  auto stop = [&](ScanDiagnosis d) {
    result.diagnosis = d;
    result.valid_bytes = pos;
    result.error_offset = pos;
    return result;
  };
  while (pos < bytes.size()) {
    const std::size_t remaining = bytes.size() - pos;
    // Validate header fields in order, reporting a torn tail whenever the
    // bytes run out before the field under inspection is complete.
    if (remaining < 2) return stop(ScanDiagnosis::kTornTail);
    if (get_u16(bytes, pos) != kJournalMagic)
      return stop(ScanDiagnosis::kBadMagic);
    if (remaining < 3) return stop(ScanDiagnosis::kTornTail);
    if (bytes[pos + 2] != kJournalVersion)
      return stop(ScanDiagnosis::kBadVersion);
    if (remaining < 4) return stop(ScanDiagnosis::kTornTail);
    const std::uint8_t kind_byte = bytes[pos + 3];
    if (kind_byte < kMinRecordKind || kind_byte > kMaxRecordKind)
      return stop(ScanDiagnosis::kBadKind);
    const auto kind = static_cast<RecordKind>(kind_byte);
    if (remaining < kRecordHeaderBytes) return stop(ScanDiagnosis::kTornTail);
    const std::uint32_t payload_len = get_u32(bytes, pos + 4);
    if (payload_len > kMaxRecordPayload)
      return stop(ScanDiagnosis::kBadLength);
    const std::size_t total =
        kRecordHeaderBytes + payload_len + kRecordTrailerBytes;
    if (remaining < total) return stop(ScanDiagnosis::kTornTail);
    const std::uint32_t stored_crc =
        get_u32(bytes, pos + kRecordHeaderBytes + payload_len);
    const std::uint32_t computed_crc = wire::crc32(
        bytes.subspan(pos, kRecordHeaderBytes + payload_len));
    if (stored_crc != computed_crc) return stop(ScanDiagnosis::kBadCrc);
    Record rec;
    rec.kind = kind;
    if (wire::decode_packet_exact(
            bytes.subspan(pos + kRecordHeaderBytes, payload_len),
            &rec.packet) ||
        rec.packet.type != payload_type(kind))
      return stop(ScanDiagnosis::kBadPayload);
    result.records.push_back(std::move(rec));
    pos += total;
  }
  result.valid_bytes = pos;
  result.error_offset = pos;
  return result;
}

}  // namespace cesrm::durable
