#include "encoding/rbf.h"

#include "common/random.h"
#include "common/strings.h"

namespace pprl {

Result<RbfEncoder> RbfEncoder::Create(RbfParams params,
                                      std::vector<RbfFieldConfig> fields) {
  if (fields.empty()) return Status::InvalidArgument("RBF needs at least one field");
  if (params.output_bits == 0) {
    return Status::InvalidArgument("RBF output length must be > 0");
  }
  if (params.scheme == BloomHashScheme::kKeyedHmac && params.secret_key.empty()) {
    return Status::InvalidArgument("keyed RBF requires a secret key");
  }
  double total_weight = 0;
  for (const auto& field : fields) {
    if (field.weight <= 0) {
      return Status::InvalidArgument("RBF field weight must be positive: " +
                                     field.field_name);
    }
    if (field.field_bits == 0 || field.num_hashes == 0) {
      return Status::InvalidArgument("RBF field parameters must be positive: " +
                                     field.field_name);
    }
    total_weight += field.weight;
  }

  // Deterministic sampling layout: output bit i draws from a field chosen
  // by weight, at a uniform position of that field's filter. Both parties
  // derive the identical layout from the shared seed.
  Rng rng(params.sampling_seed);
  std::vector<SampledBit> layout;
  layout.reserve(params.output_bits);
  for (size_t i = 0; i < params.output_bits; ++i) {
    double pick = rng.NextDouble() * total_weight;
    uint32_t field = 0;
    for (size_t f = 0; f < fields.size(); ++f) {
      pick -= fields[f].weight;
      if (pick <= 0) {
        field = static_cast<uint32_t>(f);
        break;
      }
      if (f + 1 == fields.size()) field = static_cast<uint32_t>(f);
    }
    const uint32_t position =
        static_cast<uint32_t>(rng.NextUint64(fields[field].field_bits));
    layout.push_back({field, position});
  }
  return RbfEncoder(std::move(params), std::move(fields), std::move(layout));
}

RbfEncoder::RbfEncoder(RbfParams params, std::vector<RbfFieldConfig> fields,
                       std::vector<SampledBit> layout)
    : params_(std::move(params)),
      fields_(std::move(fields)),
      layout_(std::move(layout)) {
  encoders_.reserve(fields_.size());
  for (const RbfFieldConfig& field : fields_) {
    encoders_.emplace_back(BloomFilterParams{field.field_bits, field.num_hashes,
                                             params_.scheme, params_.secret_key});
  }
}

size_t RbfEncoder::BitsSampledFrom(size_t field_index) const {
  size_t count = 0;
  for (const SampledBit& bit : layout_) {
    if (bit.field == field_index) ++count;
  }
  return count;
}

Result<BitVector> RbfEncoder::Encode(const Schema& schema, const Record& record) const {
  // Field-level filters first.
  std::vector<BitVector> field_filters;
  field_filters.reserve(fields_.size());
  for (size_t f = 0; f < fields_.size(); ++f) {
    const RbfFieldConfig& field = fields_[f];
    const int idx = schema.FieldIndex(field.field_name);
    if (idx < 0) {
      return Status::InvalidArgument("RBF field '" + field.field_name +
                                     "' not in schema");
    }
    if (static_cast<size_t>(idx) >= record.values.size()) {
      return Status::InvalidArgument("record has no value for '" + field.field_name +
                                     "'");
    }
    QGramOptions opts;
    opts.q = field.q;
    std::vector<std::string> tokens =
        QGrams(NormalizeQid(record.values[static_cast<size_t>(idx)]), opts);
    for (std::string& token : tokens) token = field.field_name + "\x1e" + token;
    field_filters.push_back(encoders_[f].EncodeTokens(tokens));
  }

  // Assemble the record filter from the sampling layout.
  BitVector out(params_.output_bits);
  for (size_t i = 0; i < layout_.size(); ++i) {
    const SampledBit& bit = layout_[i];
    if (field_filters[bit.field].Get(bit.position)) out.Set(i);
  }
  return out;
}

Result<std::vector<BitVector>> RbfEncoder::EncodeDatabase(const Database& db) const {
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
