#include "common/wire.h"

namespace pprl {

void WireWriter::PutBytes(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

void WireWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

Status WireReader::Read(std::string* out, size_t max_len) {
  uint32_t len = 0;
  PPRL_RETURN_IF_ERROR(Read(&len));
  if (len > max_len) {
    return Status::OutOfRange("wire: declared string length " + std::to_string(len) +
                              " exceeds limit " + std::to_string(max_len));
  }
  auto body = ReadView(len);
  if (!body.ok()) return Status::OutOfRange("wire: truncated string body");
  out->assign(reinterpret_cast<const char*>(*body), len);
  return Status::OK();
}

Result<std::string> WireReader::ReadString(size_t max_len) {
  std::string s;
  PPRL_RETURN_IF_ERROR(Read(&s, max_len));
  return s;
}

Result<std::vector<uint8_t>> WireReader::ReadBytes(size_t len) {
  auto view = ReadView(len);
  if (!view.ok()) return view.status();
  return std::vector<uint8_t>(*view, *view + len);
}

Result<const uint8_t*> WireReader::ReadView(size_t len) {
  if (remaining() < len) return Status::OutOfRange("wire: truncated byte run");
  const uint8_t* view = data_ + pos_;
  pos_ += len;
  return view;
}

Status WireReader::ReadU32s(size_t count, std::vector<uint32_t>* out) {
  if (count > remaining() / 4) return Status::OutOfRange("wire: truncated u32 run");
  out->resize(count);
  LoadLeSpan(out->data(), data_ + pos_, count);
  pos_ += count * 4;
  return Status::OK();
}

}  // namespace pprl
