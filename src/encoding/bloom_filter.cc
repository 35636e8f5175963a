#include "encoding/bloom_filter.h"

#include <charconv>
#include <iterator>
#include <limits>

#include "encoding/numeric_encoding.h"

namespace pprl {

Status BloomFilterParams::Validate() const {
  if (num_bits == 0) return Status::InvalidArgument("num_bits must be > 0");
  if (num_hashes == 0) return Status::InvalidArgument("num_hashes must be > 0");
  if (scheme == BloomHashScheme::kKeyedHmac && secret_key.empty()) {
    return Status::InvalidArgument("keyed HMAC scheme requires a secret key");
  }
  return Status::OK();
}

BloomFilterEncoder::BloomFilterEncoder(BloomFilterParams params)
    : params_(std::move(params)) {
  if (params_.scheme == BloomHashScheme::kKeyedHmac) key_.emplace(params_.secret_key);
}

template <typename Emit>
void BloomFilterEncoder::ForEachPosition(std::string_view token, Emit emit) const {
  const uint64_t l = params_.num_bits;
  switch (params_.scheme) {
    case BloomHashScheme::kDoubleHashing: {
      const uint64_t h1 = DigestToUint64(Md5(token));
      const uint64_t h2 = DigestToUint64(Sha1(token));
      for (size_t j = 0; j < params_.num_hashes; ++j) {
        emit(static_cast<uint32_t>((h1 + j * h2) % l));
      }
      break;
    }
    case BloomHashScheme::kKeyedHmac: {
      // Position j is HMAC(key, token || 0x1f || decimal j). The token is
      // absorbed once; each position finishes from that midstate with its
      // own suffix, 0x1f and at most 20 digits.
      const HmacSha256Key::Midstate token_state = key_->Absorb(token);
      char suffix[1 + std::numeric_limits<size_t>::digits10 + 1];
      suffix[0] = '\x1f';
      for (size_t j = 0; j < params_.num_hashes; ++j) {
        const char* end = std::to_chars(suffix + 1, std::end(suffix), j).ptr;
        const std::string_view message(suffix, static_cast<size_t>(end - suffix));
        emit(static_cast<uint32_t>(key_->Mac64(token_state, message) % l));
      }
      break;
    }
  }
}

std::vector<uint32_t> BloomFilterEncoder::TokenPositions(const std::string& token) const {
  std::vector<uint32_t> positions;
  positions.reserve(params_.num_hashes);
  ForEachPosition(token, [&positions](uint32_t pos) { positions.push_back(pos); });
  return positions;
}

BitVector BloomFilterEncoder::EncodeTokens(const std::vector<std::string>& tokens) const {
  BitVector filter(params_.num_bits);
  for (const std::string& token : tokens) {
    ForEachPosition(token, [&filter](uint32_t pos) { filter.Set(pos); });
  }
  return filter;
}

BitVector BloomFilterEncoder::EncodeString(const std::string& value,
                                           const QGramOptions& qgrams) const {
  return EncodeTokens(QGrams(NormalizeQid(value), qgrams));
}

ClkEncoder::ClkEncoder(BloomFilterParams params, std::vector<ClkFieldConfig> fields)
    : params_(std::move(params)), fields_(std::move(fields)) {
  encoders_.reserve(fields_.size());
  for (const ClkFieldConfig& field : fields_) {
    BloomFilterParams field_params = params_;
    field_params.num_hashes = field.num_hashes;
    encoders_.emplace_back(std::move(field_params));
  }
}

Result<BitVector> ClkEncoder::Encode(const Schema& schema, const Record& record) const {
  PPRL_RETURN_IF_ERROR(params_.Validate());
  BitVector clk(params_.num_bits);
  for (size_t f = 0; f < fields_.size(); ++f) {
    const ClkFieldConfig& field = fields_[f];
    const int idx = schema.FieldIndex(field.field_name);
    if (idx < 0) {
      return Status::InvalidArgument("CLK field '" + field.field_name +
                                     "' not in schema");
    }
    if (static_cast<size_t>(idx) >= record.values.size()) {
      return Status::InvalidArgument("record has no value for field '" +
                                     field.field_name + "'");
    }
    const std::string& raw = record.values[static_cast<size_t>(idx)];
    std::vector<std::string> tokens;
    if (field.numeric_step > 0) {
      auto numeric_tokens = NumericNeighborhoodTokens(raw, field.numeric_step,
                                                      field.numeric_neighbors);
      if (!numeric_tokens.ok()) return numeric_tokens.status();
      tokens = std::move(numeric_tokens).value();
    } else {
      QGramOptions opts;
      opts.q = field.q;
      tokens = QGrams(NormalizeQid(raw), opts);
    }
    // Field-distinct tokens: prefix with the field name so "jo" in a first
    // name and "jo" in a surname map to different positions.
    for (std::string& token : tokens) token = field.field_name + "\x1e" + token;
    clk |= encoders_[f].EncodeTokens(tokens);
  }
  return clk;
}

Result<std::vector<BitVector>> ClkEncoder::EncodeDatabase(const Database& db) const {
  std::vector<BitVector> out;
  out.reserve(db.records.size());
  for (const Record& record : db.records) {
    auto encoded = Encode(db.schema, record);
    if (!encoded.ok()) return encoded.status();
    out.push_back(std::move(encoded).value());
  }
  return out;
}

}  // namespace pprl
