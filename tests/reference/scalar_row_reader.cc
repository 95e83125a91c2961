#include "tests/reference/scalar_row_reader.h"

namespace scoop {

bool ScalarRowReader::Next(Row* row) {
  while (pos_ < data_.size()) {
    size_t nl = data_.find('\n', pos_);
    std::string_view line;
    if (nl == std::string_view::npos) {
      line = data_.substr(pos_);
      pos_ = data_.size();
    } else {
      line = data_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
    }
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    const std::vector<std::string_view>& fields = parser_.Parse(line);
    if (fields.size() != schema_->size()) {
      ++malformed_;
      continue;
    }
    row->clear();
    row->reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      row->push_back(Value::FromField(fields[i], schema_->column(i).type));
    }
    ++rows_;
    return true;
  }
  return false;
}

}  // namespace scoop
