#include "dataset/benchmark.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "dataset/query_generator.h"
#include "nl/lexicon.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace gred::dataset {

const GeneratedDatabase* BenchmarkSuite::FindCleanDb(
    const std::string& name) const {
  for (const GeneratedDatabase& db : databases) {
    if (strings::EqualsIgnoreCase(db.data.name(), name)) return &db;
  }
  return nullptr;
}

const GeneratedDatabase* BenchmarkSuite::FindRobDb(
    const std::string& name) const {
  for (const GeneratedDatabase& db : databases_rob) {
    if (strings::EqualsIgnoreCase(db.data.name(), name)) return &db;
  }
  return nullptr;
}

BenchmarkSuite BuildBenchmarkSuite(const BenchmarkOptions& options) {
  BenchmarkSuite suite;
  const nl::Lexicon& lexicon = nl::Lexicon::Default();

  DbGeneratorOptions db_options;
  db_options.num_databases = options.num_databases;
  db_options.seed = options.seed;
  suite.databases = GenerateDatabases(EntityBank::Default(), db_options);

  // Schema-perturbed corpus + rename maps.
  Rng perturb_rng(options.seed ^ 0xa5a5a5a5ULL);
  PerturbOptions perturb_options;
  for (const GeneratedDatabase& db : suite.databases) {
    SchemaRename renames;
    Rng db_rng = perturb_rng.Fork();
    suite.databases_rob.push_back(
        PerturbSchema(db, lexicon, perturb_options, &db_rng, &renames));
    suite.renames[db.data.name()] = std::move(renames);
  }

  // Example generation: one shared pool, split into train/test by a
  // deterministic shuffle. Because several NLQ variants share each plan,
  // most test visualizations also appear in training with a different
  // question — nvBench's no-cross-domain regime (Section 3).
  QueryGeneratorOptions qg_options;
  qg_options.seed = options.seed ^ 0x5c5c5c5cULL;
  QueryGenerator generator(&suite.databases, &lexicon, qg_options);
  std::vector<Example> pool =
      generator.Generate(options.train_size + options.test_size, "ex-");
  Rng split_rng(options.seed ^ 0x3d3d3d3dULL);
  split_rng.Shuffle(&pool);
  if (options.cross_domain) {
    // Hold out every fifth database: its examples are test-only, the
    // rest are train-only. Both sides are capped at the requested sizes.
    std::set<std::string> holdout;
    for (std::size_t i = 0; i < suite.databases.size(); i += 5) {
      holdout.insert(strings::ToLower(suite.databases[i].data.name()));
    }
    for (Example& ex : pool) {
      const bool held = holdout.count(strings::ToLower(ex.db_name)) > 0;
      if (held && suite.test_clean.size() < options.test_size) {
        suite.test_clean.push_back(std::move(ex));
      } else if (!held && suite.train.size() < options.train_size) {
        suite.train.push_back(std::move(ex));
      }
    }
  } else {
    const std::size_t test_size = std::min(options.test_size, pool.size());
    suite.test_clean.resize(test_size);
    suite.train.resize(pool.size() - test_size);
    ParallelFor(pool.size(), [&](std::size_t i) {
      (i < test_size ? suite.test_clean[i] : suite.train[i - test_size]) =
          pool[i];
    });
  }

  // Derived robustness test sets, one pass per example. Each schema
  // variant resolves its database and rename map through one index built
  // here, not a scan of the corpus per example.
  struct SchemaTarget {
    const GeneratedDatabase* clean = nullptr;
    const SchemaRename* renames = nullptr;
  };
  std::unordered_map<std::string, SchemaTarget> targets;
  for (const GeneratedDatabase& db : suite.databases) {
    targets.emplace(strings::ToLower(db.data.name()),
                    SchemaTarget{&db, &suite.renames.at(db.data.name())});
  }
  const std::size_t n = suite.test_clean.size();
  suite.test_nlq.resize(n);
  suite.test_schema.resize(n);
  suite.test_both.resize(n);
  ParallelFor(n, [&](std::size_t i) {
    const Example& clean = suite.test_clean[i];
    const SchemaTarget& target = targets.at(strings::ToLower(clean.db_name));
    Example& nlq = suite.test_nlq[i] = clean;
    nlq.nlq = clean.nlq_rob;
    Example& schema = suite.test_schema[i] = clean;
    schema.dvq = RewriteDvq(clean.dvq, *target.clean, *target.renames);
    Example& both = suite.test_both[i] = schema;
    both.nlq = clean.nlq_rob;
  });

  return suite;
}

DatasetStats ComputeStats(const std::vector<Example>& examples,
                          const std::vector<GeneratedDatabase>& databases) {
  DatasetStats stats;
  std::set<std::string> used_dbs;
  for (const Example& ex : examples) {
    ++stats.total;
    ++stats.by_chart[dvq::ChartTypeName(ex.dvq.chart)];
    ++stats.by_hardness[HardnessName(ex.hardness)];
    used_dbs.insert(strings::ToLower(ex.db_name));
  }
  stats.num_databases = 0;
  for (const GeneratedDatabase& db : databases) {
    if (used_dbs.count(strings::ToLower(db.data.name())) == 0) continue;
    ++stats.num_databases;
    stats.num_tables += db.data.tables().size();
    stats.num_columns += db.data.db_schema().total_columns();
  }
  if (stats.num_databases > 0) {
    stats.avg_tables_per_db = static_cast<double>(stats.num_tables) /
                              static_cast<double>(stats.num_databases);
  }
  if (stats.num_tables > 0) {
    stats.avg_columns_per_table = static_cast<double>(stats.num_columns) /
                                  static_cast<double>(stats.num_tables);
  }
  return stats;
}

}  // namespace gred::dataset
