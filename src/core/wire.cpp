#include "core/wire.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace oddci::core::wire {

namespace {

template <typename T>
void append_le(std::string& out, T v) {
  char raw[sizeof(T)];
  std::memcpy(raw, &v, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(std::begin(raw), std::end(raw));
  }
  out.append(raw, sizeof(T));
}

template <typename T>
T read_le(std::string_view data, std::size_t pos) {
  T v;
  char raw[sizeof(T)];
  std::memcpy(raw, data.data() + pos, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(std::begin(raw), std::end(raw));
  }
  std::memcpy(&v, raw, sizeof(T));
  return v;
}

}  // namespace

Writer& Writer::u8(std::uint8_t v) {
  out_.push_back(static_cast<char>(v));
  return *this;
}
Writer& Writer::u32(std::uint32_t v) {
  append_le(out_, v);
  return *this;
}
Writer& Writer::u64(std::uint64_t v) {
  append_le(out_, v);
  return *this;
}
Writer& Writer::i64(std::int64_t v) {
  append_le(out_, v);
  return *this;
}
Writer& Writer::f64(double v) {
  append_le(out_, v);
  return *this;
}
Writer& Writer::str(std::string_view s) {
  if (s.size() > 0xFFFFFFFFull) {
    throw WireError("Writer: string too long");
  }
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s.data(), s.size());
  return *this;
}

void Reader::need(std::size_t n) const {
  if (pos_ + n > data_.size()) {
    throw WireError("Reader: truncated input");
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}
std::uint32_t Reader::u32() {
  need(4);
  const auto v = read_le<std::uint32_t>(data_, pos_);
  pos_ += 4;
  return v;
}
std::uint64_t Reader::u64() {
  need(8);
  const auto v = read_le<std::uint64_t>(data_, pos_);
  pos_ += 8;
  return v;
}
std::int64_t Reader::i64() {
  need(8);
  const auto v = read_le<std::int64_t>(data_, pos_);
  pos_ += 8;
  return v;
}
double Reader::f64() {
  need(8);
  const auto v = read_le<double>(data_, pos_);
  pos_ += 8;
  return v;
}
std::string Reader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

// --- control plane ---------------------------------------------------------

namespace {
constexpr std::uint32_t kControlMagic = 0x0DDC1C7E;
}

std::string encode(const ControlMessage& m) {
  Writer w;
  encode_into(m, w);
  return w.take();
}

void encode_into(const ControlMessage& m, Writer& w) {
  w.u32(kControlMagic);
  w.u8(static_cast<std::uint8_t>(m.type));
  w.u64(m.instance);
  w.f64(m.probability);
  w.i64(m.requirements.min_ram.count());
  w.i64(m.requirements.min_flash.count());
  w.str(m.requirements.device_kind);
  w.i64(m.heartbeat_interval.micros());
  w.u64(m.image.image_id);
  w.str(m.image.name);
  w.i64(m.image.size.count());
  w.u32(m.controller_node);
  w.u32(m.backend_node);
  w.u32(static_cast<std::uint32_t>(m.aggregators.size()));
  for (auto node : m.aggregators) w.u32(node);
  // Trace context travels as transport-header metadata: on the wire but
  // outside canonical_bytes(), so attaching a recorder never re-signs.
  w.u64(m.trace.trace_id);
  w.u64(m.trace.parent_span);
  w.u64(m.signature);
}

ControlMessage decode_control(std::string_view bytes) {
  Reader r(bytes);
  if (r.u32() != kControlMagic) {
    throw WireError("decode_control: bad magic");
  }
  ControlMessage m;
  const std::uint8_t type = r.u8();
  if (type != static_cast<std::uint8_t>(ControlType::kWakeup) &&
      type != static_cast<std::uint8_t>(ControlType::kReset)) {
    throw WireError("decode_control: unknown control type");
  }
  m.type = static_cast<ControlType>(type);
  m.instance = r.u64();
  m.probability = r.f64();
  m.requirements.min_ram = util::Bits(r.i64());
  m.requirements.min_flash = util::Bits(r.i64());
  m.requirements.device_kind = r.str();
  m.heartbeat_interval = sim::SimTime::from_micros(r.i64());
  m.image.image_id = r.u64();
  m.image.name = r.str();
  m.image.size = util::Bits(r.i64());
  m.controller_node = r.u32();
  m.backend_node = r.u32();
  const std::uint32_t aggregator_count = r.u32();
  if (aggregator_count > 1'000'000) {
    throw WireError("decode_control: implausible aggregator count");
  }
  m.aggregators.reserve(aggregator_count);
  for (std::uint32_t i = 0; i < aggregator_count; ++i) {
    m.aggregators.push_back(r.u32());
  }
  m.trace.trace_id = r.u64();
  m.trace.parent_span = r.u64();
  m.signature = r.u64();
  if (!r.exhausted()) {
    throw WireError("decode_control: trailing bytes");
  }
  return m;
}

// --- direct channels ---------------------------------------------------------

std::string encode(const net::Message& message) {
  Writer w;
  encode_into(message, w);
  return w.take();
}

namespace {

// Shared by the standalone frame and the relay batch: a batch is framed as
// a count followed by the same per-frame encoding.
void encode_delta_frame(const DeltaReportMessage& m, Writer& w) {
  w.u32(m.origin());
  w.u32(m.epoch());
  w.u8(static_cast<std::uint8_t>(m.kind()));
  w.u64(m.checksum());
  w.u32(static_cast<std::uint32_t>(m.entries().size()));
  for (const auto& e : m.entries()) {
    w.u64(e.pna_id);
    w.u8(static_cast<std::uint8_t>(e.op));
    w.u8(static_cast<std::uint8_t>(e.state));
    w.u64(e.instance);
    w.u64(e.trace.trace_id);
    w.u64(e.trace.parent_span);
  }
}

}  // namespace

void encode_into(const net::Message& message, Writer& w) {
  w.u8(static_cast<std::uint8_t>(message.tag()));
  switch (message.tag()) {
    case kTagHeartbeat: {
      const auto& m = static_cast<const HeartbeatMessage&>(message);
      w.u64(m.pna_id());
      w.u8(static_cast<std::uint8_t>(m.state()));
      w.u64(m.instance());
      w.u64(m.trace().trace_id);
      w.u64(m.trace().parent_span);
      break;
    }
    case kTagHeartbeatReply: {
      const auto& m = static_cast<const HeartbeatReplyMessage&>(message);
      w.u64(m.instance());
      w.u8(static_cast<std::uint8_t>(m.command()));
      break;
    }
    case kTagTaskRequest: {
      const auto& m = static_cast<const TaskRequestMessage&>(message);
      w.u64(m.instance());
      w.u64(m.pna_id());
      break;
    }
    case kTagTaskAssign: {
      const auto& m = static_cast<const TaskAssignMessage&>(message);
      w.u64(m.instance());
      w.u64(m.task_index());
      w.i64(m.input_size().count());
      w.i64(m.result_size().count());
      w.f64(m.reference_seconds());
      w.u64(m.trace().trace_id);
      w.u64(m.trace().parent_span);
      w.u32(m.replica());
      break;
    }
    case kTagTaskResult: {
      const auto& m = static_cast<const TaskResultMessage&>(message);
      w.u64(m.instance());
      w.u64(m.task_index());
      w.u64(m.pna_id());
      w.i64(m.wire_size().count() - kHeaderBits.count());
      w.u64(m.trace().trace_id);
      w.u64(m.trace().parent_span);
      w.u64(m.digest());
      w.u32(m.replica());
      break;
    }
    case kTagNoTask: {
      const auto& m = static_cast<const NoTaskMessage&>(message);
      w.u64(m.instance());
      break;
    }
    case kTagTaskAbort: {
      const auto& m = static_cast<const TaskAbortMessage&>(message);
      w.u64(m.instance());
      w.u64(m.task_index());
      w.u64(m.pna_id());
      w.u64(m.trace().trace_id);
      w.u64(m.trace().parent_span);
      w.u32(m.replica());
      break;
    }
    case kTagAggregateReport: {
      const auto& m = static_cast<const AggregateReportMessage&>(message);
      w.u32(static_cast<std::uint32_t>(m.entries().size()));
      for (const auto& e : m.entries()) {
        w.u64(e.pna_id);
        w.u8(static_cast<std::uint8_t>(e.state));
        w.u64(e.instance);
        w.u64(e.trace.trace_id);
        w.u64(e.trace.parent_span);
      }
      break;
    }
    case kTagDeltaReport: {
      const auto& m = static_cast<const DeltaReportMessage&>(message);
      encode_delta_frame(m, w);
      break;
    }
    case kTagDeltaBatch: {
      const auto& m = static_cast<const DeltaBatchMessage&>(message);
      w.u32(static_cast<std::uint32_t>(m.frames().size()));
      for (const auto& f : m.frames()) encode_delta_frame(*f, w);
      break;
    }
    default:
      throw std::invalid_argument("wire::encode: tag has no wire format");
  }
}

namespace {
PnaState decode_state(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(PnaState::kBusy)) {
    throw WireError("decode_message: invalid PNA state");
  }
  return static_cast<PnaState>(raw);
}

std::shared_ptr<DeltaReportMessage> decode_delta_frame(Reader& r) {
  const auto origin = r.u32();
  const auto epoch = r.u32();
  const auto kind = r.u8();
  if (kind > static_cast<std::uint8_t>(DeltaReportMessage::Kind::kResync)) {
    throw WireError("decode_message: invalid delta frame kind");
  }
  const auto checksum = r.u64();
  const std::uint32_t count = r.u32();
  // Each encoded entry is at least 34 bytes; a count promising more data
  // than remains is a foreign or corrupted frame, not a big one.
  if (static_cast<std::size_t>(count) * 34 > r.remaining()) {
    throw WireError("decode_message: implausible delta size");
  }
  std::vector<DeltaReportMessage::Entry> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    DeltaReportMessage::Entry e;
    e.pna_id = r.u64();
    const auto op = r.u8();
    if (op > static_cast<std::uint8_t>(DeltaReportMessage::Op::kExpire)) {
      throw WireError("decode_message: invalid delta op");
    }
    e.op = static_cast<DeltaReportMessage::Op>(op);
    e.state = decode_state(r.u8());
    e.instance = r.u64();
    e.trace = obs::TraceContext{r.u64(), r.u64()};
    entries.push_back(e);
  }
  return std::make_shared<DeltaReportMessage>(
      origin, epoch, static_cast<DeltaReportMessage::Kind>(kind), checksum,
      std::move(entries));
}
}  // namespace

net::MessagePtr decode_message(std::string_view bytes) {
  Reader r(bytes);
  const std::uint8_t tag = r.u8();
  net::MessagePtr out;
  switch (tag) {
    case kTagHeartbeat: {
      const auto pna = r.u64();
      const auto state = decode_state(r.u8());
      const auto instance = r.u64();
      const obs::TraceContext trace{r.u64(), r.u64()};
      out = std::make_shared<HeartbeatMessage>(pna, state, instance, trace);
      break;
    }
    case kTagHeartbeatReply: {
      const auto instance = r.u64();
      const auto command = r.u8();
      if (command > static_cast<std::uint8_t>(HeartbeatCommand::kReset)) {
        throw WireError("decode_message: invalid heartbeat command");
      }
      out = std::make_shared<HeartbeatReplyMessage>(
          instance, static_cast<HeartbeatCommand>(command));
      break;
    }
    case kTagTaskRequest: {
      const auto instance = r.u64();
      const auto pna = r.u64();
      out = std::make_shared<TaskRequestMessage>(instance, pna);
      break;
    }
    case kTagTaskAssign: {
      const auto instance = r.u64();
      const auto index = r.u64();
      const auto input = util::Bits(r.i64());
      const auto result = util::Bits(r.i64());
      const auto seconds = r.f64();
      const obs::TraceContext trace{r.u64(), r.u64()};
      const auto replica = r.u32();
      out = std::make_shared<TaskAssignMessage>(instance, index, input,
                                                result, seconds, trace,
                                                replica);
      break;
    }
    case kTagTaskResult: {
      const auto instance = r.u64();
      const auto index = r.u64();
      const auto pna = r.u64();
      const auto result = util::Bits(r.i64());
      const obs::TraceContext trace{r.u64(), r.u64()};
      const auto digest = r.u64();
      const auto replica = r.u32();
      out = std::make_shared<TaskResultMessage>(instance, index, pna, result,
                                                trace, digest, replica);
      break;
    }
    case kTagNoTask:
      out = std::make_shared<NoTaskMessage>(r.u64());
      break;
    case kTagTaskAbort: {
      const auto instance = r.u64();
      const auto index = r.u64();
      const auto pna = r.u64();
      const obs::TraceContext trace{r.u64(), r.u64()};
      const auto replica = r.u32();
      out = std::make_shared<TaskAbortMessage>(instance, index, pna, trace,
                                               replica);
      break;
    }
    case kTagAggregateReport: {
      const std::uint32_t count = r.u32();
      if (static_cast<std::size_t>(count) * 33 > r.remaining()) {
        throw WireError("decode_message: implausible report size");
      }
      std::vector<AggregateReportMessage::Entry> entries;
      entries.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        AggregateReportMessage::Entry e;
        e.pna_id = r.u64();
        e.state = decode_state(r.u8());
        e.instance = r.u64();
        e.trace = obs::TraceContext{r.u64(), r.u64()};
        entries.push_back(e);
      }
      out = std::make_shared<AggregateReportMessage>(std::move(entries));
      break;
    }
    case kTagDeltaReport: {
      out = decode_delta_frame(r);
      break;
    }
    case kTagDeltaBatch: {
      const std::uint32_t frames = r.u32();
      // A frame is at least 21 bytes even when empty.
      if (static_cast<std::size_t>(frames) * 21 > r.remaining()) {
        throw WireError("decode_message: implausible batch size");
      }
      std::vector<std::shared_ptr<const DeltaReportMessage>> decoded;
      decoded.reserve(frames);
      for (std::uint32_t i = 0; i < frames; ++i) {
        decoded.push_back(decode_delta_frame(r));
      }
      out = std::make_shared<DeltaBatchMessage>(std::move(decoded));
      break;
    }
    default:
      throw WireError("decode_message: unknown tag");
  }
  if (!r.exhausted()) {
    throw WireError("decode_message: trailing bytes");
  }
  return out;
}

}  // namespace oddci::core::wire
