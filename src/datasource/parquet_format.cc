#include "datasource/parquet_format.h"

#include <cstring>
#include <map>

#include "common/strings.h"
#include "common/lz.h"

namespace scoop {

namespace {

constexpr char kMagic[4] = {'S', 'P', 'Q', '1'};
constexpr uint16_t kNullIndex = 0xffff;

// SCOOP_RETURN_IF_ERROR for Status expressions inside Result-returning
// methods (the common macro works too; this alias documents the intent).
#define SCOOP_RETURN_IF_ERROR_V(expr)  \
  do {                                 \
    ::scoop::Status _s = (expr);       \
    if (!_s.ok()) return _s;           \
  } while (false)

enum Encoding : uint8_t { kPlain = 0, kDict = 1 };

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>(v >> 8));
}
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

class BinReader {
 public:
  explicit BinReader(std::string_view data) : data_(data) {}

  Result<uint8_t> U8() {
    SCOOP_RETURN_IF_ERROR_V(Need(1));
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint16_t> U16() {
    SCOOP_RETURN_IF_ERROR_V(Need(2));
    uint16_t v = static_cast<uint8_t>(data_[pos_]) |
                 (static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_ + 1]))
                  << 8);
    pos_ += 2;
    return v;
  }
  Result<uint32_t> U32() {
    SCOOP_RETURN_IF_ERROR_V(Need(4));
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  Result<uint64_t> U64() {
    SCOOP_RETURN_IF_ERROR_V(Need(8));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  Result<std::string> String() {
    SCOOP_ASSIGN_OR_RETURN(uint32_t len, U32());
    SCOOP_RETURN_IF_ERROR_V(Need(len));
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
  }
  Result<std::string_view> Bytes(size_t n) {
    SCOOP_RETURN_IF_ERROR_V(Need(n));
    std::string_view v = data_.substr(pos_, n);
    pos_ += n;
    return v;
  }
  Status Skip(size_t n) { return Need(n).ok() ? (pos_ += n, Status::OK())
                                              : Status::InvalidArgument(
                                                    "truncated parquet data"); }
  bool AtEnd() const { return pos_ >= data_.size(); }

 private:
  Status Need(size_t n) const {
    if (pos_ + n > data_.size()) {
      return Status::InvalidArgument("truncated parquet data");
    }
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// Encodes a column's values with the plain encoding.
std::string EncodePlain(const std::vector<Row>& rows, size_t col,
                        ColumnType type) {
  std::string out;
  for (const Row& row : rows) {
    const Value& v = row[col];
    if (v.is_null()) {
      PutU8(&out, 0);
      continue;
    }
    PutU8(&out, 1);
    switch (type) {
      case ColumnType::kInt64: {
        PutU64(&out, static_cast<uint64_t>(v.type() == ValueType::kInt64
                                               ? v.AsInt64()
                                               : static_cast<int64_t>(
                                                     v.ToDouble())));
        break;
      }
      case ColumnType::kDouble: {
        double d = v.ToDouble();
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        PutU64(&out, bits);
        break;
      }
      case ColumnType::kString:
        PutString(&out, v.ToString());
        break;
    }
  }
  return out;
}

Value DecodeOne(BinReader* reader, ColumnType type, Status* status) {
  auto flag = reader->U8();
  if (!flag.ok()) {
    *status = flag.status();
    return Value::Null();
  }
  if (*flag == 0) return Value::Null();
  switch (type) {
    case ColumnType::kInt64: {
      auto bits = reader->U64();
      if (!bits.ok()) {
        *status = bits.status();
        return Value::Null();
      }
      return Value(static_cast<int64_t>(*bits));
    }
    case ColumnType::kDouble: {
      auto bits = reader->U64();
      if (!bits.ok()) {
        *status = bits.status();
        return Value::Null();
      }
      double d;
      uint64_t b = *bits;
      std::memcpy(&d, &b, 8);
      return Value(d);
    }
    case ColumnType::kString: {
      auto s = reader->String();
      if (!s.ok()) {
        *status = s.status();
        return Value::Null();
      }
      return Value(std::move(*s));
    }
  }
  return Value::Null();
}

}  // namespace

Result<std::string> ParquetEncode(const Schema& schema,
                                  const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    if (row.size() != schema.size()) {
      return Status::InvalidArgument("row width does not match schema");
    }
  }
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, static_cast<uint32_t>(schema.size()));
  PutU64(&out, rows.size());

  for (size_t col = 0; col < schema.size(); ++col) {
    const Column& column = schema.column(col);
    // Stats.
    ParquetColumnStats stats;
    for (const Row& row : rows) {
      const Value& v = row[col];
      if (v.is_null()) continue;
      std::string display = v.ToString();
      if (!stats.has_values) {
        stats.min = display;
        stats.max = display;
        stats.has_values = true;
      } else {
        Value current = Value::FromField(display, column.type);
        Value lo = Value::FromField(stats.min, column.type);
        Value hi = Value::FromField(stats.max, column.type);
        if (current.Compare(lo) < 0) stats.min = display;
        if (current.Compare(hi) > 0) stats.max = display;
      }
    }

    // Pick encoding: dictionary for low-cardinality string columns.
    uint8_t encoding = kPlain;
    std::string raw;
    if (column.type == ColumnType::kString && rows.size() >= 16) {
      std::map<std::string, uint16_t> dict;
      bool viable = true;
      for (const Row& row : rows) {
        if (row[col].is_null()) continue;
        std::string key = row[col].ToString();
        if (!dict.count(key)) {
          if (dict.size() >= 4096) {
            viable = false;
            break;
          }
          dict.emplace(std::move(key), 0);
        }
      }
      if (viable && dict.size() * 2 < rows.size()) {
        encoding = kDict;
        uint16_t next = 0;
        for (auto& [key, id] : dict) id = next++;
        PutU32(&raw, static_cast<uint32_t>(dict.size()));
        for (const auto& [key, id] : dict) PutString(&raw, key);
        for (const Row& row : rows) {
          if (row[col].is_null()) {
            PutU16(&raw, kNullIndex);
          } else {
            PutU16(&raw, dict.at(row[col].ToString()));
          }
        }
      }
    }
    if (encoding == kPlain) {
      raw = EncodePlain(rows, col, column.type);
    }
    std::string compressed = LzCompress(raw);

    PutString(&out, column.name);
    PutU8(&out, static_cast<uint8_t>(column.type));
    PutU8(&out, encoding);
    PutU8(&out, stats.has_values ? 1 : 0);
    PutString(&out, stats.min);
    PutString(&out, stats.max);
    PutU64(&out, raw.size());
    PutU64(&out, compressed.size());
    out.append(compressed);
  }
  return out;
}

namespace {

struct ColumnBlock {
  Column column;
  uint8_t encoding = kPlain;
  ParquetColumnStats stats;
  uint64_t raw_size = 0;
  std::string_view compressed;
};

Result<std::pair<ParquetInfo, std::vector<ColumnBlock>>> ParseBlocks(
    std::string_view data) {
  if (data.size() < 4 || std::memcmp(data.data(), kMagic, 4) != 0) {
    return Status::InvalidArgument("not a parquet-like object (bad magic)");
  }
  BinReader reader(data.substr(4));
  SCOOP_ASSIGN_OR_RETURN(uint32_t ncols, reader.U32());
  ParquetInfo info;
  SCOOP_ASSIGN_OR_RETURN(info.rows, reader.U64());
  std::vector<ColumnBlock> blocks;
  std::vector<Column> columns;
  for (uint32_t c = 0; c < ncols; ++c) {
    ColumnBlock block;
    SCOOP_ASSIGN_OR_RETURN(block.column.name, reader.String());
    SCOOP_ASSIGN_OR_RETURN(uint8_t type, reader.U8());
    if (type > 2) return Status::InvalidArgument("bad column type");
    block.column.type = static_cast<ColumnType>(type);
    SCOOP_ASSIGN_OR_RETURN(block.encoding, reader.U8());
    SCOOP_ASSIGN_OR_RETURN(uint8_t has_values, reader.U8());
    block.stats.has_values = has_values != 0;
    SCOOP_ASSIGN_OR_RETURN(block.stats.min, reader.String());
    SCOOP_ASSIGN_OR_RETURN(block.stats.max, reader.String());
    SCOOP_ASSIGN_OR_RETURN(block.raw_size, reader.U64());
    SCOOP_ASSIGN_OR_RETURN(uint64_t compressed_size, reader.U64());
    SCOOP_ASSIGN_OR_RETURN(block.compressed, reader.Bytes(compressed_size));
    columns.push_back(block.column);
    info.stats.push_back(block.stats);
    blocks.push_back(std::move(block));
  }
  info.schema = Schema(std::move(columns));
  return std::make_pair(std::move(info), std::move(blocks));
}

Result<std::vector<Value>> DecodeColumn(const ColumnBlock& block,
                                        uint64_t rows) {
  SCOOP_ASSIGN_OR_RETURN(std::string raw, LzDecompress(block.compressed));
  if (raw.size() != block.raw_size) {
    return Status::InvalidArgument("column block size mismatch");
  }
  std::vector<Value> values;
  values.reserve(rows);
  BinReader reader(raw);
  if (block.encoding == kDict) {
    SCOOP_ASSIGN_OR_RETURN(uint32_t dict_size, reader.U32());
    std::vector<std::string> dict(dict_size);
    for (uint32_t i = 0; i < dict_size; ++i) {
      SCOOP_ASSIGN_OR_RETURN(dict[i], reader.String());
    }
    for (uint64_t r = 0; r < rows; ++r) {
      SCOOP_ASSIGN_OR_RETURN(uint16_t index, reader.U16());
      if (index == kNullIndex) {
        values.push_back(Value::Null());
      } else if (index < dict_size) {
        values.push_back(Value(dict[index]));
      } else {
        return Status::InvalidArgument("dictionary index out of range");
      }
    }
  } else {
    for (uint64_t r = 0; r < rows; ++r) {
      Status status = Status::OK();
      values.push_back(DecodeOne(&reader, block.column.type, &status));
      SCOOP_RETURN_IF_ERROR(status);
    }
  }
  return values;
}

}  // namespace

Result<ParquetInfo> ParquetInspect(std::string_view data) {
  SCOOP_ASSIGN_OR_RETURN(auto parsed, ParseBlocks(data));
  return std::move(parsed.first);
}

Result<RecordBatch> ParquetDecodeBatch(
    std::string_view data, const std::vector<std::string>& required_columns) {
  SCOOP_ASSIGN_OR_RETURN(auto parsed, ParseBlocks(data));
  const ParquetInfo& info = parsed.first;
  const std::vector<ColumnBlock>& blocks = parsed.second;

  std::vector<const ColumnBlock*> selected;
  if (required_columns.empty()) {
    for (const ColumnBlock& block : blocks) selected.push_back(&block);
  } else {
    for (const std::string& name : required_columns) {
      int idx = info.schema.IndexOf(name);
      if (idx < 0) return Status::NotFound("no parquet column named " + name);
      selected.push_back(&blocks[static_cast<size_t>(idx)]);
    }
  }

  std::vector<Column> out_columns;
  out_columns.reserve(selected.size());
  for (const ColumnBlock* block : selected) out_columns.push_back(block->column);
  RecordBatch batch{Schema(std::move(out_columns))};

  for (size_t c = 0; c < selected.size(); ++c) {
    const ColumnBlock& block = *selected[c];
    if (block.encoding == kDict) {
      // Straight into a dictionary column vector: distinct values + codes.
      SCOOP_ASSIGN_OR_RETURN(std::string raw, LzDecompress(block.compressed));
      if (raw.size() != block.raw_size) {
        return Status::InvalidArgument("column block size mismatch");
      }
      BinReader reader(raw);
      SCOOP_ASSIGN_OR_RETURN(uint32_t dict_size, reader.U32());
      std::vector<std::string> dict(dict_size);
      for (uint32_t i = 0; i < dict_size; ++i) {
        SCOOP_ASSIGN_OR_RETURN(dict[i], reader.String());
      }
      std::vector<int32_t> codes;
      codes.reserve(info.rows);
      for (uint64_t r = 0; r < info.rows; ++r) {
        SCOOP_ASSIGN_OR_RETURN(uint16_t index, reader.U16());
        if (index == kNullIndex) {
          codes.push_back(-1);
        } else if (index < dict_size) {
          codes.push_back(static_cast<int32_t>(index));
        } else {
          return Status::InvalidArgument("dictionary index out of range");
        }
      }
      batch.SetColumn(c, ColumnVector::FromDictionary(dict, codes));
      continue;
    }
    SCOOP_ASSIGN_OR_RETURN(std::vector<Value> values,
                           DecodeColumn(block, info.rows));
    ColumnVector* col = batch.mutable_column(c);
    col->Reserve(static_cast<int64_t>(info.rows));
    for (const Value& v : values) col->AppendValue(v);
  }
  batch.set_num_rows(static_cast<int64_t>(info.rows));
  return batch;
}

bool ParquetCanSkip(const SourceFilter& filter, const Schema& schema,
                    const std::vector<ParquetColumnStats>& stats) {
  using Op = SourceFilter::Op;
  switch (filter.op) {
    case Op::kAnd:
      for (const SourceFilter& child : filter.children) {
        if (ParquetCanSkip(child, schema, stats)) return true;
      }
      return false;
    case Op::kOr:
      for (const SourceFilter& child : filter.children) {
        if (!ParquetCanSkip(child, schema, stats)) return false;
      }
      return !filter.children.empty();
    case Op::kTrue:
    case Op::kNot:
    case Op::kIsNull:
    case Op::kNe:
      return false;
    default:
      break;
  }
  int idx = schema.IndexOf(filter.column);
  if (idx < 0 || static_cast<size_t>(idx) >= stats.size()) return false;
  const ParquetColumnStats& s = stats[static_cast<size_t>(idx)];
  if (!s.has_values) return true;  // only nulls: no comparison can match
  ColumnType type = schema.column(static_cast<size_t>(idx)).type;

  if (filter.op == Op::kIsNotNull) return false;
  if (filter.op == Op::kLike) {
    size_t wildcard = filter.literal.find_first_of("%_");
    std::string prefix = filter.literal.substr(
        0, wildcard == std::string::npos ? filter.literal.size() : wildcard);
    if (prefix.empty()) return false;
    // No value with this prefix can exist when max < prefix or when even
    // min already sorts above every prefixed string.
    if (s.max < prefix) return true;
    if (s.min.substr(0, prefix.size()) > prefix) return true;
    return false;
  }

  Value lit = filter.literal_is_number
                  ? Value::FromField(filter.literal,
                                     type == ColumnType::kString
                                         ? ColumnType::kDouble
                                         : type)
                  : Value(filter.literal);
  Value lo = Value::FromField(s.min, type);
  Value hi = Value::FromField(s.max, type);
  switch (filter.op) {
    case Op::kEq:
      return lit.Compare(lo) < 0 || lit.Compare(hi) > 0;
    case Op::kLt:
      return lo.Compare(lit) >= 0;
    case Op::kLe:
      return lo.Compare(lit) > 0;
    case Op::kGt:
      return hi.Compare(lit) <= 0;
    case Op::kGe:
      return hi.Compare(lit) < 0;
    default:
      return false;
  }
}

}  // namespace scoop
