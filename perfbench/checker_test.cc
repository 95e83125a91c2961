// The benchmark's own test of its result checker: on a small dataset the
// real program's result for every Table I query must pass the checker,
// and the same result with one perturbed value, or with two rows swapped,
// must fail it. Exits 0 when all of that holds.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <memory>
#include <utility>

#include "perfbench/reference.h"
#include "scoop/scoop.h"
#include "workload/queries.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

// Bumps one value of `table` so that it no longer equals the original.
void Perturb(scoop::ResultTable* table) {
  scoop::Value& v = table->rows[table->rows.size() / 2].back();
  switch (v.type()) {
    case scoop::ValueType::kInt64:
      v = scoop::Value(v.AsInt64() + 1);
      break;
    case scoop::ValueType::kDouble:
      v = scoop::Value(v.AsDoubleExact() * (1 + 1e-12));
      break;
    default:
      v = scoop::Value(v.ToString() + "x");
      break;
  }
}

int Run() {
  auto cluster = scoop::ScoopCluster::Create();
  if (!cluster.ok()) return 2;
  auto client = (*cluster)->Connect("gridpocket", "secret", "gp");
  if (!client.ok()) return 2;
  scoop::ScoopSession session(cluster->get(), std::move(client).value(), 2);
  scoop::GeneratorConfig config;
  config.num_meters = 24;
  config.readings_per_meter = 600;
  config.seed = 7;
  scoop::GridPocketGenerator gen(config);
  if (!gen.Upload(&session.client(), "meters", "m", 3).ok()) return 2;
  scoop::CsvSourceOptions options;
  options.chunk_size = 16 * 1024;
  session.RegisterCsvTable("largeMeter", "meters", "m",
                           scoop::GridPocketGenerator::MeterSchema(), true,
                           options);

  const auto& queries = scoop::GridPocketQueries();
  std::vector<VariantId> ids;
  for (size_t b = 0; b < queries.size(); ++b) {
    ids.push_back({static_cast<int>(b), 1});
  }
  std::vector<RefTable> want = ComputeReference(gen, ids);
  for (size_t b = 0; b < queries.size(); ++b) {
    auto got = session.Sql(queries[b].sql);
    if (!got.ok()) {
      Expect(false, queries[b].name + " ran");
      continue;
    }
    std::string diff = CompareResult(got->table, want[b]);
    Expect(diff.empty(), queries[b].name + " matches the reference " + diff);
    if (got->table.rows.size() < 2) {
      Expect(false, queries[b].name + " has at least two rows to disturb");
      continue;
    }
    scoop::ResultTable perturbed = got->table;
    Perturb(&perturbed);
    Expect(!CompareResult(perturbed, want[b]).empty(),
           queries[b].name + " with one perturbed value is caught");
    Expect(!SameResult(perturbed, got->table),
           queries[b].name + " perturbed differs from the program result");
    scoop::ResultTable reordered = got->table;
    std::swap(reordered.rows.front(), reordered.rows.back());
    Expect(!CompareResult(reordered, want[b]).empty(),
           queries[b].name + " with two rows swapped is caught");
  }
  Expect(LikeMatch("2015-01-31 10:00:00", "2015-01-%") &&
             !LikeMatch("2015-10-01 00:00:00", "2015-01%") &&
             LikeMatch("UKR", "U%") && !LikeMatch("Rotterdamm", "Rotterdam"),
         "LIKE matcher");
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main() { return perfbench::Run(); }
