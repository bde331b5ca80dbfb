// Ablation — cube layout (DESIGN.md §3.3).
//
// RASED aggregates over dense uint64 arrays (DataCube) but maintains the
// index in the sparse write form (SparseCube, a sorted cell list): a
// day's updates touch a small fraction of the cells, so ingest and
// rollups cost work proportional to the updates. This ablation measures
// ingest (increments / pairs sorted into a cube), rollup-merge and total
// for both layouts at several fill factors.

#include "bench_common.h"
#include "cube/sparse_cube.h"
#include "util/clock.h"

using namespace rased;
using namespace rased::bench;

namespace {

struct Sample {
  uint32_t et, co, rt, ut;
};

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::FromArgs(argc, argv);
  // Paper-scale width: the write path's question is what a 549,000-cell
  // cube costs when a day's updates touch a few thousand cells.
  const CubeSchema schema = CubeSchema::PaperScale();

  PrintHeader("Ablation: dense vs sparse cube layout",
              StrFormat("schema %s; two increments per non-zero cell",
                        schema.ToString().c_str()));
  PrintRow({"fill", "dense add", "sparse add", "dense merge", "sparse merge",
            "dense sum", "sparse sum"});

  // 0.3% is a paper-scale day (~1,700 increments).
  for (double fill : {0.003, 0.01, 0.1, 0.5}) {
    // Pre-draw coordinates hitting ~fill of the cells.
    Rng rng(env.seed + static_cast<uint64_t>(fill * 1000));
    size_t distinct = static_cast<size_t>(
        fill * static_cast<double>(schema.num_cells()));
    if (distinct == 0) distinct = 1;
    std::vector<Sample> pool;
    pool.reserve(distinct);
    for (size_t i = 0; i < distinct; ++i) {
      pool.push_back(Sample{static_cast<uint32_t>(rng.Uniform(schema.num_element_types)),
                            static_cast<uint32_t>(rng.Uniform(schema.num_countries)),
                            static_cast<uint32_t>(rng.Uniform(schema.num_road_types)),
                            static_cast<uint32_t>(rng.Uniform(schema.num_update_types))});
    }
    std::vector<Sample> ops;
    ops.reserve(2 * distinct);
    for (size_t i = 0; i < 2 * distinct; ++i) {
      ops.push_back(pool[rng.Uniform(pool.size())]);
    }

    // Each layout starts from nothing, as a day's ingest does.
    StopWatch w1;
    DataCube dense_a(schema);
    for (const Sample& s : ops) dense_a.Add(s.et, s.co, s.rt, s.ut, 1);
    double dense_add = w1.ElapsedMillis();
    StopWatch w2;
    std::vector<CubeCell> pairs;
    pairs.reserve(ops.size());
    for (const Sample& s : ops) {
      pairs.push_back(CubeCell{schema.CellIndex(s.et, s.co, s.rt, s.ut), 1});
    }
    SparseCube sparse_a = SparseCube::FromPairs(schema, std::move(pairs));
    double sparse_add = w2.ElapsedMillis();
    RASED_CHECK(sparse_a.ToDense() == dense_a);

    DataCube dense_b = dense_a;
    const SparseCube sparse_b = sparse_a;
    StopWatch w3;
    for (int i = 0; i < 10; ++i) {
      Status s = dense_a.Merge(dense_b);
      RASED_CHECK(s.ok());
    }
    double dense_merge = w3.ElapsedMillis() / 10;
    StopWatch w4;
    for (int i = 0; i < 10; ++i) {
      const SparseCube* parts[] = {&sparse_a, &sparse_b};
      sparse_a = SparseCube::Merge(schema, parts);
    }
    double sparse_merge = w4.ElapsedMillis() / 10;

    StopWatch w5;
    uint64_t dsum = 0;
    for (int i = 0; i < 10; ++i) dsum += dense_a.Total();
    double dense_sum = w5.ElapsedMillis() / 10;
    StopWatch w6;
    uint64_t ssum = 0;
    for (int i = 0; i < 10; ++i) ssum += sparse_a.Total();
    double sparse_sum = w6.ElapsedMillis() / 10;
    RASED_CHECK(dsum > 0 && ssum > 0);

    PrintRow({StrFormat("%.1f%%", fill * 100), FmtMillis(dense_add),
              FmtMillis(sparse_add), FmtMillis(dense_merge),
              FmtMillis(sparse_merge), FmtMillis(dense_sum),
              FmtMillis(sparse_sum)});
  }

  std::printf(
      "\nExpected: at daily-cube fill the sparse cell list wins ingest and\n"
      "merge by roughly an order of magnitude: the dense cube pays for its\n"
      "4.4 MB zero-fill and full-width adds; sorting the pairs catches up\n"
      "around a few percent fill, and dense wins once most cells are set.\n");
  return 0;
}
