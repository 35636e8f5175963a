#include "net/frame.h"

#include <cstring>

#include "common/wire.h"

namespace pprl {

namespace {
constexpr uint8_t kMagic[4] = {'P', 'P', 'R', 'L'};
}  // namespace

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  WireWriter w;
  w.PutBytes(kMagic, sizeof(kMagic));
  w.PutU8(frame.version);
  w.PutU8(frame.type);
  w.PutU16(0);  // reserved
  w.PutU32(static_cast<uint32_t>(frame.payload.size()));
  w.PutBytes(frame.payload.data(), frame.payload.size());
  return w.Take();
}

Result<size_t> DecodeFrameHeader(const uint8_t* header, size_t len, uint8_t* version_out,
                                 uint8_t* type_out, size_t max_payload) {
  if (len < kFrameHeaderSize) {
    return Status::OutOfRange("frame: header truncated at " + std::to_string(len) +
                              " bytes");
  }
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Status::ProtocolViolation("frame: bad magic");
  }
  const uint8_t version = header[4];
  const uint8_t type = header[5];
  const uint16_t reserved = LoadLe<uint16_t>(header + 6);
  const uint32_t declared = LoadLeU32(header + 8);
  if (version != kWireProtocolVersion) {
    return Status::ProtocolViolation("frame: unsupported protocol version " +
                                     std::to_string(version));
  }
  if (reserved != 0) {
    return Status::ProtocolViolation("frame: non-zero reserved bytes");
  }
  if (declared > max_payload) {
    return Status::OutOfRange("frame: declared payload " + std::to_string(declared) +
                              " exceeds cap " + std::to_string(max_payload));
  }
  if (version_out != nullptr) *version_out = version;
  if (type_out != nullptr) *type_out = type;
  return static_cast<size_t>(declared);
}

Result<size_t> BufferSource::Read(uint8_t* buf, size_t max) {
  const size_t n = std::min(max, bytes_.size() - pos_);
  if (n == 0) return n;  // empty vector data() may be null; keep memcpy defined
  std::memcpy(buf, bytes_.data() + pos_, n);
  pos_ += n;
  return n;
}

Status BufferSink::Write(const uint8_t* buf, size_t len) {
  bytes_.insert(bytes_.end(), buf, buf + len);
  return Status::OK();
}

Status FrameReader::ReadExact(uint8_t* buf, size_t len, bool* clean_eof_at_start) {
  size_t got = 0;
  while (got < len) {
    auto n = source_.Read(buf + got, len - got);
    if (!n.ok()) return n.status();
    if (*n == 0) {
      if (got == 0 && clean_eof_at_start != nullptr) {
        *clean_eof_at_start = true;
        return Status::NotFound("frame: end of stream");
      }
      return Status::OutOfRange("frame: stream truncated after " + std::to_string(got) +
                                " of " + std::to_string(len) + " bytes");
    }
    got += *n;
  }
  return Status::OK();
}

Result<Frame> FrameReader::ReadFrame() {
  uint8_t header[kFrameHeaderSize];
  bool clean_eof = false;
  PPRL_RETURN_IF_ERROR(ReadExact(header, kFrameHeaderSize, &clean_eof));
  Frame frame;
  auto payload_len =
      DecodeFrameHeader(header, kFrameHeaderSize, &frame.version, &frame.type, max_payload_);
  if (!payload_len.ok()) return payload_len.status();
  frame.payload.resize(*payload_len);
  if (*payload_len > 0) {
    PPRL_RETURN_IF_ERROR(ReadExact(frame.payload.data(), *payload_len, nullptr));
  }
  return frame;
}

Status FrameWriter::WriteFrame(uint8_t type, const std::vector<uint8_t>& payload) {
  if (payload.size() > max_payload_) {
    return Status::OutOfRange("frame: payload " + std::to_string(payload.size()) +
                              " exceeds cap " + std::to_string(max_payload_));
  }
  Frame frame;
  frame.type = type;
  frame.payload = payload;
  const std::vector<uint8_t> encoded = EncodeFrame(frame);
  return sink_.Write(encoded.data(), encoded.size());
}

}  // namespace pprl
