#include "perfbench/reference.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <tuple>

namespace perfbench {
namespace {

// Column positions of the GridPocket row (GridPocketGenerator::MeterSchema).
enum Col { kVid = 0, kDate = 1, kIndex = 2, kSumHC = 3, kSumHP = 4, kLat = 5,
           kLong = 6, kCity = 7, kState = 8 };

// One output column of a Table I query.
enum class Out { kDateKey, kSecondKey, kSumIndex, kFirst, kMin, kMax };
struct OutCol {
  Out what;
  int col = -1;  // source column for kFirst/kMin/kMax
};

// The Table I queries as the reference evaluator reads them: a WHERE of
// LIKE filters, GROUP BY (SUBSTRING(date, 0, date_key_len), second key),
// ORDER BY the same two keys, and the SELECT list. Index = position in
// scoop::GridPocketQueries().
struct BaseSpec {
  int date_key_len;
  int second_key;          // kVid or kState
  const char* date_suffix;  // date LIKE '2015-MM<suffix>'
  const char* city_like;   // nullptr: no city filter
  const char* state_like;  // nullptr: no state filter
  std::vector<OutCol> out;
};

const std::vector<BaseSpec>& Specs() {
  static const std::vector<BaseSpec>& specs = *new std::vector<BaseSpec>{
      // ShowMapCons
      {7, kVid, "%", nullptr, nullptr,
       {{Out::kSecondKey}, {Out::kSumIndex}, {Out::kFirst, kLat},
        {Out::kFirst, kLong}, {Out::kFirst, kState}}},
      // ShowMapMeter
      {7, kVid, "%", nullptr, nullptr,
       {{Out::kSecondKey}, {Out::kSumIndex}, {Out::kFirst, kCity},
        {Out::kFirst, kLat}, {Out::kFirst, kLong}, {Out::kFirst, kState}}},
      // ShowMapHeatmonth
      {10, kVid, "%", nullptr, nullptr,
       {{Out::kDateKey}, {Out::kSumIndex}, {Out::kFirst, kLat},
        {Out::kFirst, kLong}}},
      // Showgraphcons
      {10, kVid, "-%", "Rotterdam", nullptr,
       {{Out::kDateKey}, {Out::kSumIndex}, {Out::kSecondKey}}},
      // ShowPiemonth
      {10, kState, "-%", nullptr, "U%",
       {{Out::kDateKey}, {Out::kSecondKey}, {Out::kSumIndex}}},
      // ShowGraphHCHP
      {10, kVid, "-%", nullptr, "FRA",
       {{Out::kDateKey}, {Out::kSecondKey}, {Out::kMin, kSumHC},
        {Out::kMax, kSumHC}, {Out::kMin, kSumHP}, {Out::kMax, kSumHP}}},
      // Showday
      {13, kVid, "-%", "Rotterdam", nullptr,
       {{Out::kDateKey}, {Out::kSumIndex}, {Out::kSecondKey}}},
  };
  return specs;
}

// A generated value as stored in the CSV object and read back: doubles
// are written with "%.6g" (the generator's rendering) and parsed again.
RefValue Stored(const scoop::Value& v) {
  switch (v.type()) {
    case scoop::ValueType::kInt64:
      return v.AsInt64();
    case scoop::ValueType::kDouble: {
      char text[64];
      std::snprintf(text, sizeof(text), "%.6g", v.AsDoubleExact());
      return std::strtod(text, nullptr);
    }
    case scoop::ValueType::kString:
      return v.AsString();
    case scoop::ValueType::kNull:
      break;
  }
  std::fprintf(stderr, "reference: null in generated data\n");
  std::abort();
}

struct GroupKey {
  std::string date;
  int64_t vid = 0;
  std::string state;
  bool operator<(const GroupKey& o) const {
    return std::tie(date, vid, state) < std::tie(o.date, o.vid, o.state);
  }
};

struct GroupState {
  int64_t sum = 0;
  std::vector<RefValue> first;  // per output column (kFirst only)
  std::vector<double> minmax;   // per output column (kMin/kMax only)
};

struct VariantState {
  const BaseSpec* spec = nullptr;
  std::string date_pattern;
  std::map<GroupKey, GroupState> groups;
};

std::string RenderRefValue(const RefValue& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) {
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g(double)", *d);
    return text;
  }
  return "'" + std::get<std::string>(v) + "'";
}

std::optional<RefValue> FromProgram(const scoop::Value& v) {
  switch (v.type()) {
    case scoop::ValueType::kInt64:
      return RefValue(v.AsInt64());
    case scoop::ValueType::kDouble:
      return RefValue(v.AsDoubleExact());
    case scoop::ValueType::kString:
      return RefValue(v.AsString());
    case scoop::ValueType::kNull:
      break;
  }
  return std::nullopt;
}

}  // namespace

bool LikeMatch(std::string_view value, std::string_view pattern) {
  if (pattern.empty()) return value.empty();
  if (pattern[0] == '%') {
    for (size_t skip = 0; skip <= value.size(); ++skip) {
      if (LikeMatch(value.substr(skip), pattern.substr(1))) return true;
    }
    return false;
  }
  if (value.empty()) return false;
  if (pattern[0] != '_' && pattern[0] != value[0]) return false;
  return LikeMatch(value.substr(1), pattern.substr(1));
}

std::vector<RefTable> ComputeReference(const scoop::GridPocketGenerator& gen,
                                       const std::vector<VariantId>& variants) {
  const std::vector<BaseSpec>& specs = Specs();
  std::vector<VariantState> states(variants.size());
  std::vector<std::vector<size_t>> by_month(13);
  for (size_t i = 0; i < variants.size(); ++i) {
    states[i].spec = &specs.at(static_cast<size_t>(variants[i].base));
    char month[16];
    std::snprintf(month, sizeof(month), "2015-%02d", variants[i].month);
    states[i].date_pattern = std::string(month) + states[i].spec->date_suffix;
    by_month.at(static_cast<size_t>(variants[i].month)).push_back(i);
  }

  for (int64_t r = 0; r < gen.TotalRows(); ++r) {
    scoop::Row generated = gen.MakeRow(r);
    std::vector<RefValue> row;
    row.reserve(generated.size());
    for (const scoop::Value& v : generated) row.push_back(Stored(v));
    const std::string& date = std::get<std::string>(row[kDate]);
    const std::string& city = std::get<std::string>(row[kCity]);
    const std::string& state = std::get<std::string>(row[kState]);
    int month = (date[5] - '0') * 10 + (date[6] - '0');
    if (month < 1 || month > 12) continue;
    for (size_t i : by_month[static_cast<size_t>(month)]) {
      VariantState& vs = states[i];
      const BaseSpec& spec = *vs.spec;
      if (!LikeMatch(date, vs.date_pattern)) continue;
      if (spec.city_like != nullptr && !LikeMatch(city, spec.city_like)) {
        continue;
      }
      if (spec.state_like != nullptr && !LikeMatch(state, spec.state_like)) {
        continue;
      }
      GroupKey key;
      key.date = date.substr(0, static_cast<size_t>(spec.date_key_len));
      if (spec.second_key == kVid) {
        key.vid = std::get<int64_t>(row[kVid]);
      } else {
        key.state = state;
      }
      auto [it, fresh] = vs.groups.try_emplace(key);
      GroupState& g = it->second;
      if (fresh) {
        g.first.resize(spec.out.size());
        g.minmax.resize(spec.out.size());
        for (size_t c = 0; c < spec.out.size(); ++c) {
          const OutCol& oc = spec.out[c];
          if (oc.what == Out::kFirst) g.first[c] = row[oc.col];
          if (oc.what == Out::kMin || oc.what == Out::kMax) {
            g.minmax[c] = std::get<double>(row[oc.col]);
          }
        }
      }
      g.sum += std::get<int64_t>(row[kIndex]);
      for (size_t c = 0; c < spec.out.size(); ++c) {
        const OutCol& oc = spec.out[c];
        if (oc.what == Out::kMin) {
          g.minmax[c] = std::min(g.minmax[c], std::get<double>(row[oc.col]));
        } else if (oc.what == Out::kMax) {
          g.minmax[c] = std::max(g.minmax[c], std::get<double>(row[oc.col]));
        }
      }
    }
  }

  std::vector<RefTable> tables(variants.size());
  for (size_t i = 0; i < variants.size(); ++i) {
    const BaseSpec& spec = *states[i].spec;
    for (const auto& [key, g] : states[i].groups) {
      RefRow out;
      for (size_t c = 0; c < spec.out.size(); ++c) {
        switch (spec.out[c].what) {
          case Out::kDateKey:
            out.emplace_back(key.date);
            break;
          case Out::kSecondKey:
            if (spec.second_key == kVid) {
              out.emplace_back(key.vid);
            } else {
              out.emplace_back(key.state);
            }
            break;
          case Out::kSumIndex:
            out.emplace_back(g.sum);
            break;
          case Out::kFirst:
            out.push_back(g.first[c]);
            break;
          case Out::kMin:
          case Out::kMax:
            out.emplace_back(g.minmax[c]);
            break;
        }
      }
      tables[i].push_back(std::move(out));
    }
  }
  return tables;
}

std::string CompareResult(const scoop::ResultTable& got, const RefTable& want) {
  if (got.rows.size() != want.size()) {
    return "row count " + std::to_string(got.rows.size()) + ", expected " +
           std::to_string(want.size());
  }
  for (size_t r = 0; r < want.size(); ++r) {
    const scoop::Row& row = got.rows[r];
    if (row.size() != want[r].size()) {
      return "row " + std::to_string(r) + ": " + std::to_string(row.size()) +
             " columns, expected " + std::to_string(want[r].size());
    }
    for (size_t c = 0; c < row.size(); ++c) {
      std::optional<RefValue> v = FromProgram(row[c]);
      if (!v.has_value() || *v != want[r][c]) {
        return "row " + std::to_string(r) + " column " + std::to_string(c) +
               ": got " +
               (v.has_value() ? RenderRefValue(*v) : std::string("NULL")) +
               ", expected " + RenderRefValue(want[r][c]);
      }
    }
  }
  return "";
}

bool SameResult(const scoop::ResultTable& a, const scoop::ResultTable& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      if (FromProgram(a.rows[r][c]) != FromProgram(b.rows[r][c])) return false;
    }
  }
  return true;
}

}  // namespace perfbench
