#include "sketch/serialize.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <string>
#include <utility>

#include "common/float_order.h"

namespace streamgpu::sketch {

namespace {

using core::Status;
using core::StatusOr;

/// Pre-envelope GK framing ("GKS1") — readable for one release (shim).
constexpr std::uint32_t kLegacyGkMagic = 0x474B5331;

constexpr std::size_t kHeaderSize =
    sizeof(std::uint32_t) + sizeof(std::uint16_t) + sizeof(std::uint16_t) +
    sizeof(std::uint64_t) + sizeof(std::uint32_t);

template <typename T>
void Append(std::vector<std::uint8_t>* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t offset = out->size();
  out->resize(offset + sizeof(T));
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

template <typename T>
bool Read(std::span<const std::uint8_t>* bytes, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (bytes->size() < sizeof(T)) return false;
  std::memcpy(value, bytes->data(), sizeof(T));
  *bytes = bytes->subspan(sizeof(T));
  return true;
}

struct Crc32Table {
  std::array<std::uint32_t, 256> entries{};
  constexpr Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
      }
      entries[i] = crc;
    }
  }
};

constexpr Crc32Table kCrcTable;

/// Writes the envelope header + payload onto `out`.
void AppendEnvelope(SketchType type, std::span<const std::uint8_t> payload,
                    std::vector<std::uint8_t>* out) {
  out->reserve(out->size() + kHeaderSize + payload.size());
  Append(out, kWireMagic);
  Append(out, kWireVersion);
  Append(out, static_cast<std::uint16_t>(type));
  Append(out, static_cast<std::uint64_t>(payload.size()));
  Append(out, Crc32(payload));
  out->insert(out->end(), payload.begin(), payload.end());
}

struct Envelope {
  SketchType type;
  std::span<const std::uint8_t> payload;
  std::size_t consumed;  ///< total envelope bytes, header included
};

bool IsKnownType(std::uint16_t tag) {
  return tag >= static_cast<std::uint16_t>(SketchType::kGkSummary) &&
         tag <= static_cast<std::uint16_t>(SketchType::kMisraGries);
}

/// Parses and validates one envelope header (magic, version, tag, length,
/// checksum) without interpreting the payload. Does not advance `bytes`.
StatusOr<Envelope> ParseEnvelope(std::span<const std::uint8_t> bytes) {
  std::span<const std::uint8_t> cursor = bytes;
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t tag = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t checksum = 0;
  if (!Read(&cursor, &magic) || !Read(&cursor, &version) || !Read(&cursor, &tag) ||
      !Read(&cursor, &payload_len) || !Read(&cursor, &checksum)) {
    return Status::InvalidArgument("truncated summary envelope: " +
                                   std::to_string(bytes.size()) +
                                   " bytes is smaller than the 20-byte header");
  }
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad summary envelope magic");
  }
  if (version > kWireVersion) {
    return Status::InvalidArgument(
        "summary envelope version " + std::to_string(version) +
        " is newer than this reader (version " + std::to_string(kWireVersion) +
        "); upgrade the reader");
  }
  if (version == 0) {
    return Status::InvalidArgument("summary envelope version 0 is invalid");
  }
  if (!IsKnownType(tag)) {
    return Status::InvalidArgument("unknown sketch-type tag " + std::to_string(tag));
  }
  // A corrupted length field must not drive allocation or out-of-bounds
  // reads: the payload has to fit in the remaining buffer.
  if (payload_len > cursor.size()) {
    return Status::InvalidArgument(
        "summary envelope payload length " + std::to_string(payload_len) +
        " exceeds the " + std::to_string(cursor.size()) + " remaining bytes");
  }
  const std::span<const std::uint8_t> payload =
      cursor.first(static_cast<std::size_t>(payload_len));
  if (Crc32(payload) != checksum) {
    return Status::InvalidArgument("summary envelope checksum mismatch: corrupted payload");
  }
  return Envelope{static_cast<SketchType>(tag), payload,
                  kHeaderSize + static_cast<std::size_t>(payload_len)};
}

// ---------------------------------------------------------------------------
// Per-type payloads.

void AppendGkPayload(const GkSummary& summary, std::vector<std::uint8_t>* out) {
  Append(out, summary.count());
  Append(out, summary.epsilon());
  Append(out, static_cast<std::uint64_t>(summary.size()));
  for (const GkTuple& t : summary.tuples()) {
    Append(out, t.value);
    Append(out, t.rmin);
    Append(out, t.rmax);
  }
}

StatusOr<GkSummary> ParseGkPayload(std::span<const std::uint8_t> payload) {
  std::uint64_t count = 0;
  double epsilon = 0;
  std::uint64_t tuple_count = 0;
  if (!Read(&payload, &count) || !Read(&payload, &epsilon) ||
      !Read(&payload, &tuple_count)) {
    return Status::InvalidArgument("GK payload truncated before the tuple list");
  }
  constexpr std::size_t kTupleBytes = sizeof(float) + 2 * sizeof(std::uint64_t);
  if (tuple_count > payload.size() / kTupleBytes) {
    return Status::InvalidArgument("GK payload tuple count " +
                                   std::to_string(tuple_count) +
                                   " does not fit the payload");
  }
  std::vector<GkTuple> tuples(static_cast<std::size_t>(tuple_count));
  for (GkTuple& t : tuples) {
    if (!Read(&payload, &t.value) || !Read(&payload, &t.rmin) || !Read(&payload, &t.rmax)) {
      return Status::InvalidArgument("GK payload truncated inside the tuple list");
    }
  }
  GkSummary parsed;
  if (!GkSummary::FromParts(std::move(tuples), count, epsilon, &parsed)) {
    return Status::InvalidArgument(
        "GK payload violates the summary invariants (values ascending, "
        "rmin <= rmax, rank bounds within [1, count])");
  }
  return parsed;
}

void AppendKllPayload(const KllSketch& sketch, std::vector<std::uint8_t>* out) {
  Append(out, sketch.epsilon());
  Append(out, sketch.seed());
  Append(out, sketch.count());
  Append(out, sketch.worst_case_rank_error());
  Append(out, sketch.compactions());
  Append(out, static_cast<std::uint32_t>(sketch.num_levels()));
  for (const std::vector<float>& level : sketch.levels()) {
    Append(out, static_cast<std::uint64_t>(level.size()));
    for (float v : level) Append(out, v);
  }
}

StatusOr<KllSketch> ParseKllPayload(std::span<const std::uint8_t> payload) {
  double epsilon = 0;
  std::uint64_t seed = 0;
  std::uint64_t count = 0;
  std::uint64_t worst_case = 0;
  std::uint64_t compactions = 0;
  std::uint32_t num_levels = 0;
  if (!Read(&payload, &epsilon) || !Read(&payload, &seed) || !Read(&payload, &count) ||
      !Read(&payload, &worst_case) || !Read(&payload, &compactions) ||
      !Read(&payload, &num_levels)) {
    return Status::InvalidArgument("KLL payload truncated before the levels");
  }
  if (num_levels == 0 || num_levels >= 64) {
    return Status::InvalidArgument("KLL payload level count " +
                                   std::to_string(num_levels) + " is invalid");
  }
  std::vector<std::vector<float>> levels(num_levels);
  for (std::vector<float>& level : levels) {
    std::uint64_t items = 0;
    if (!Read(&payload, &items)) {
      return Status::InvalidArgument("KLL payload truncated at a level header");
    }
    if (items > payload.size() / sizeof(float)) {
      return Status::InvalidArgument("KLL payload level item count " +
                                     std::to_string(items) +
                                     " does not fit the payload");
    }
    level.resize(static_cast<std::size_t>(items));
    for (float& v : level) {
      if (!Read(&payload, &v)) {
        return Status::InvalidArgument("KLL payload truncated inside a level");
      }
    }
  }
  KllSketch parsed(0.5);  // overwritten by FromParts on success
  if (!KllSketch::FromParts(epsilon, seed, count, worst_case, compactions,
                            std::move(levels), &parsed)) {
    return Status::InvalidArgument(
        "KLL payload violates the sketch invariants (weighted item total "
        "must equal the element count)");
  }
  return parsed;
}

void AppendCountMinPayload(const CountMinSketch& sketch,
                           std::vector<std::uint8_t>* out) {
  Append(out, sketch.epsilon());
  Append(out, sketch.delta());
  Append(out, sketch.total_weight());
  Append(out, static_cast<std::uint64_t>(sketch.width()));
  Append(out, static_cast<std::uint64_t>(sketch.depth()));
  for (std::int64_t counter : sketch.counters()) Append(out, counter);
}

StatusOr<CountMinSketch> ParseCountMinPayload(std::span<const std::uint8_t> payload) {
  double epsilon = 0;
  double delta = 0;
  std::int64_t total = 0;
  std::uint64_t width = 0;
  std::uint64_t depth = 0;
  if (!Read(&payload, &epsilon) || !Read(&payload, &delta) || !Read(&payload, &total) ||
      !Read(&payload, &width) || !Read(&payload, &depth)) {
    return Status::InvalidArgument("Count-Min payload truncated before the counters");
  }
  if (width == 0 || depth == 0 ||
      width > payload.size() / sizeof(std::int64_t) / std::max<std::uint64_t>(depth, 1)) {
    return Status::InvalidArgument("Count-Min payload dimensions do not fit the payload");
  }
  std::vector<std::int64_t> counters(static_cast<std::size_t>(width * depth));
  for (std::int64_t& counter : counters) {
    if (!Read(&payload, &counter)) {
      return Status::InvalidArgument("Count-Min payload truncated inside the counters");
    }
  }
  CountMinSketch parsed(0.5, 0.5);  // overwritten by FromParts on success
  if (!CountMinSketch::FromParts(epsilon, delta, total,
                                 static_cast<std::size_t>(width),
                                 static_cast<std::size_t>(depth),
                                 std::move(counters), &parsed)) {
    return Status::InvalidArgument(
        "Count-Min payload violates the sketch invariants (dimensions must "
        "match the epsilon/delta-derived geometry)");
  }
  return parsed;
}

void AppendMisraGriesPayload(const MisraGries& sketch,
                             std::vector<std::uint8_t>* out) {
  Append(out, sketch.epsilon());
  Append(out, sketch.stream_length());
  // Canonical entry order (the repo's float total order): equal summaries
  // serialize to identical bytes regardless of hash-map iteration order.
  std::vector<std::pair<float, std::uint64_t>> entries(sketch.counters().begin(),
                                                       sketch.counters().end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return OrderedKey(a.first) < OrderedKey(b.first);
            });
  Append(out, static_cast<std::uint64_t>(entries.size()));
  for (const auto& [value, count] : entries) {
    Append(out, value);
    Append(out, count);
  }
}

StatusOr<MisraGries> ParseMisraGriesPayload(std::span<const std::uint8_t> payload) {
  double epsilon = 0;
  std::uint64_t n = 0;
  std::uint64_t entry_count = 0;
  if (!Read(&payload, &epsilon) || !Read(&payload, &n) || !Read(&payload, &entry_count)) {
    return Status::InvalidArgument("Misra-Gries payload truncated before the entries");
  }
  constexpr std::size_t kEntryBytes = sizeof(float) + sizeof(std::uint64_t);
  if (entry_count > payload.size() / kEntryBytes) {
    return Status::InvalidArgument("Misra-Gries payload entry count " +
                                   std::to_string(entry_count) +
                                   " does not fit the payload");
  }
  std::vector<std::pair<float, std::uint64_t>> entries(
      static_cast<std::size_t>(entry_count));
  for (auto& [value, count] : entries) {
    if (!Read(&payload, &value) || !Read(&payload, &count)) {
      return Status::InvalidArgument("Misra-Gries payload truncated inside the entries");
    }
  }
  MisraGries parsed(0.5);  // overwritten by FromParts on success
  if (!MisraGries::FromParts(epsilon, n, std::move(entries), &parsed)) {
    return Status::InvalidArgument(
        "Misra-Gries payload violates the sketch invariants (distinct values, "
        "positive counts within the stream length, bounded counter set)");
  }
  return parsed;
}

/// Legacy "GKS1" framing: magic u32 | count u64 | epsilon f64 |
/// tuple_count u64 | tuples. No version, tag, or checksum.
StatusOr<GkSummary> ParseLegacyGk(std::span<const std::uint8_t>* bytes) {
  std::span<const std::uint8_t> cursor = *bytes;
  std::uint32_t magic = 0;
  if (!Read(&cursor, &magic) || magic != kLegacyGkMagic) {
    return Status::InvalidArgument("not a legacy GK summary");
  }
  StatusOr<GkSummary> parsed = ParseGkPayload(cursor);
  if (!parsed.ok()) return parsed.status();
  // The legacy framing is not self-delimiting via a length field; recompute
  // the consumed size from the parsed tuple count.
  const std::size_t consumed = sizeof(std::uint32_t) + sizeof(std::uint64_t) +
                               sizeof(double) + sizeof(std::uint64_t) +
                               parsed->size() * (sizeof(float) + 2 * sizeof(std::uint64_t));
  *bytes = bytes->subspan(consumed);
  return parsed;
}

bool LooksLegacy(std::span<const std::uint8_t> bytes) {
  std::uint32_t magic = 0;
  return Read(&bytes, &magic) && magic == kLegacyGkMagic;
}

/// Shared front half of the typed Deserialize* functions: parse one envelope
/// (or detect the legacy framing), check the tag, hand the payload to
/// `parse`, and advance the span only on success.
template <typename T, typename ParseFn>
StatusOr<T> DeserializeTyped(std::span<const std::uint8_t>* bytes, SketchType want,
                             ParseFn parse) {
  StatusOr<Envelope> envelope = ParseEnvelope(*bytes);
  if (!envelope.ok()) return envelope.status();
  if (envelope->type != want) {
    return Status::InvalidArgument(std::string("summary envelope holds a ") +
                                   SketchTypeName(envelope->type) +
                                   " sketch, expected " + SketchTypeName(want));
  }
  StatusOr<T> parsed = parse(envelope->payload);
  if (!parsed.ok()) return parsed.status();
  *bytes = bytes->subspan(envelope->consumed);
  return parsed;
}

}  // namespace

std::uint32_t Crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : bytes) {
    crc = (crc >> 8) ^ kCrcTable.entries[(crc ^ byte) & 0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

const char* SketchTypeName(SketchType type) {
  switch (type) {
    case SketchType::kGkSummary:
      return "gk";
    case SketchType::kKll:
      return "kll";
    case SketchType::kCountMin:
      return "count-min";
    case SketchType::kMisraGries:
      return "misra-gries";
  }
  return "?";
}

core::Status SerializeSummary(const GkSummary& summary, std::vector<std::uint8_t>* out) {
  std::vector<std::uint8_t> payload;
  AppendGkPayload(summary, &payload);
  AppendEnvelope(SketchType::kGkSummary, payload, out);
  return Status::Ok();
}

core::Status SerializeSummary(const KllSketch& sketch, std::vector<std::uint8_t>* out) {
  std::vector<std::uint8_t> payload;
  AppendKllPayload(sketch, &payload);
  AppendEnvelope(SketchType::kKll, payload, out);
  return Status::Ok();
}

core::Status SerializeSummary(const CountMinSketch& sketch,
                              std::vector<std::uint8_t>* out) {
  std::vector<std::uint8_t> payload;
  AppendCountMinPayload(sketch, &payload);
  AppendEnvelope(SketchType::kCountMin, payload, out);
  return Status::Ok();
}

core::Status SerializeSummary(const MisraGries& sketch, std::vector<std::uint8_t>* out) {
  std::vector<std::uint8_t> payload;
  AppendMisraGriesPayload(sketch, &payload);
  AppendEnvelope(SketchType::kMisraGries, payload, out);
  return Status::Ok();
}

core::StatusOr<SketchType> PeekSketchType(std::span<const std::uint8_t> bytes) {
  if (LooksLegacy(bytes)) return SketchType::kGkSummary;
  StatusOr<Envelope> envelope = ParseEnvelope(bytes);
  if (!envelope.ok()) return envelope.status();
  return envelope->type;
}

core::StatusOr<GkSummary> DeserializeGkSummary(std::span<const std::uint8_t>* bytes) {
  if (LooksLegacy(*bytes)) return ParseLegacyGk(bytes);
  return DeserializeTyped<GkSummary>(bytes, SketchType::kGkSummary, ParseGkPayload);
}

core::StatusOr<KllSketch> DeserializeKllSketch(std::span<const std::uint8_t>* bytes) {
  return DeserializeTyped<KllSketch>(bytes, SketchType::kKll, ParseKllPayload);
}

core::StatusOr<CountMinSketch> DeserializeCountMin(std::span<const std::uint8_t>* bytes) {
  return DeserializeTyped<CountMinSketch>(bytes, SketchType::kCountMin,
                                          ParseCountMinPayload);
}

core::StatusOr<MisraGries> DeserializeMisraGries(std::span<const std::uint8_t>* bytes) {
  return DeserializeTyped<MisraGries>(bytes, SketchType::kMisraGries,
                                      ParseMisraGriesPayload);
}

}  // namespace streamgpu::sketch
