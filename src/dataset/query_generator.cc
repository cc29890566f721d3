#include "dataset/query_generator.h"

#include <algorithm>

#include "util/strings.h"
#include "util/thread_pool.h"

namespace gred::dataset {

namespace {

using dvq::AggFunc;
using dvq::ChartType;
using dvq::CompareOp;

constexpr ChartType kChartOrder[] = {
    ChartType::kBar,        ChartType::kPie,
    ChartType::kLine,       ChartType::kScatter,
    ChartType::kStackedBar, ChartType::kGroupingLine,
    ChartType::kGroupingScatter,
};

constexpr Hardness kHardnessOrder[] = {Hardness::kEasy, Hardness::kMedium,
                                       Hardness::kHard, Hardness::kExtraHard};

AxisPick ToAxis(const GeneratedTable& table, const GeneratedColumn& col) {
  AxisPick pick;
  pick.table = table.name;
  pick.column = col.name;
  pick.words = col.spec.words;
  pick.role = col.spec.role;
  return pick;
}

/// Column candidates of a table by role family.
struct RoleIndex {
  std::vector<const GeneratedColumn*> categorical;  // kCategory | kName
  std::vector<const GeneratedColumn*> numeric;      // kNumeric
  std::vector<const GeneratedColumn*> dates;        // kDate
};

RoleIndex IndexRoles(const GeneratedTable& table) {
  RoleIndex idx;
  for (const GeneratedColumn& col : table.columns) {
    switch (col.spec.role) {
      case ColumnRole::kCategory:
      case ColumnRole::kName:
        idx.categorical.push_back(&col);
        break;
      case ColumnRole::kNumeric:
        idx.numeric.push_back(&col);
        break;
      case ColumnRole::kDate:
        idx.dates.push_back(&col);
        break;
      case ColumnRole::kId:
        break;
    }
  }
  return idx;
}

/// True when the requested chart/hardness combination is expressible.
bool Compatible(ChartType chart, Hardness hardness) {
  switch (chart) {
    case ChartType::kPie:
    case ChartType::kStackedBar:
    case ChartType::kGroupingLine:
    case ChartType::kGroupingScatter:
      return hardness != Hardness::kEasy;
    default:
      return true;
  }
}

}  // namespace

QueryGenerator::QueryGenerator(
    const std::vector<GeneratedDatabase>* databases,
    const nl::Lexicon* lexicon, QueryGeneratorOptions options)
    : databases_(databases), lexicon_(lexicon), options_(std::move(options)) {}

std::optional<QueryPlan> QueryGenerator::SamplePlan(
    const GeneratedDatabase& db, Rng* rng) {
  ChartType chart = kChartOrder[rng->PickWeighted(options_.chart_weights)];
  Hardness hardness =
      kHardnessOrder[rng->PickWeighted(options_.hardness_weights)];
  for (int tries = 0; !Compatible(chart, hardness) && tries < 8; ++tries) {
    hardness = kHardnessOrder[rng->PickWeighted(options_.hardness_weights)];
  }
  if (!Compatible(chart, hardness)) hardness = Hardness::kMedium;

  const bool wants_join = hardness == Hardness::kExtraHard;

  // Choose the main table (and parent, when joining).
  const GeneratedTable* main = nullptr;
  const GeneratedTable* parent = nullptr;
  const schema::ForeignKey* fk = nullptr;
  if (wants_join) {
    std::vector<const schema::ForeignKey*> fks;
    for (const schema::ForeignKey& candidate :
         db.data.db_schema().foreign_keys()) {
      fks.push_back(&candidate);
    }
    if (fks.empty()) return std::nullopt;
    fk = fks[rng->NextIndex(fks.size())];
    main = db.FindTable(fk->from_table);
    parent = db.FindTable(fk->to_table);
    if (main == nullptr || parent == nullptr) return std::nullopt;
  } else {
    if (db.tables.empty()) return std::nullopt;
    main = &db.tables[rng->NextIndex(db.tables.size())];
  }

  RoleIndex main_roles = IndexRoles(*main);
  RoleIndex parent_roles = parent != nullptr ? IndexRoles(*parent)
                                             : RoleIndex{};

  QueryPlan plan;
  plan.db_name = db.data.name();
  plan.chart = chart;
  plan.hardness = hardness;
  plan.main_table = main->name;
  // Line/scatter families draw both axes from the main table, so a JOIN
  // would not contribute any selected column; extra-hard plans for those
  // charts filter through a scalar subquery instead.
  const bool join_motivated =
      chart == ChartType::kBar || chart == ChartType::kPie ||
      chart == ChartType::kStackedBar;
  if (fk != nullptr && join_motivated) {
    QueryPlan::JoinPick join;
    join.parent_table = parent->name;
    join.fk_column = fk->from_column;
    join.parent_key = fk->to_column;
    plan.join = join;
  }

  auto pick = [&](const std::vector<const GeneratedColumn*>& candidates,
                  const GeneratedTable& table) -> std::optional<AxisPick> {
    if (candidates.empty()) return std::nullopt;
    return ToAxis(table, *candidates[rng->NextIndex(candidates.size())]);
  };

  // --- X axis and series -------------------------------------------------
  const bool is_grouped = chart == ChartType::kStackedBar ||
                          chart == ChartType::kGroupingLine ||
                          chart == ChartType::kGroupingScatter;
  const GeneratedTable& x_table =
      (fk != nullptr && chart != ChartType::kScatter &&
       chart != ChartType::kGroupingScatter)
          ? *parent
          : *main;
  RoleIndex& x_roles = (&x_table == main) ? main_roles : parent_roles;

  if (chart == ChartType::kLine || chart == ChartType::kGroupingLine) {
    std::optional<AxisPick> x = pick(main_roles.dates, *main);
    if (!x.has_value()) return std::nullopt;
    plan.x = *x;
  } else if (chart == ChartType::kScatter ||
             chart == ChartType::kGroupingScatter) {
    std::optional<AxisPick> x = pick(main_roles.numeric, *main);
    if (!x.has_value()) return std::nullopt;
    plan.x = *x;
  } else {
    std::optional<AxisPick> x = pick(x_roles.categorical, x_table);
    if (!x.has_value()) return std::nullopt;
    plan.x = *x;
  }
  if (is_grouped) {
    // Series: a categorical column distinct from x, from the main table.
    std::vector<const GeneratedColumn*> series_candidates;
    for (const GeneratedColumn* c : main_roles.categorical) {
      if (c->name != plan.x.column) series_candidates.push_back(c);
    }
    std::optional<AxisPick> series = pick(series_candidates, *main);
    if (!series.has_value()) return std::nullopt;
    plan.series = *series;
  }

  // --- Y axis --------------------------------------------------------------
  auto pick_numeric_y = [&]() -> std::optional<AxisPick> {
    std::vector<const GeneratedColumn*> candidates;
    for (const GeneratedColumn* c : main_roles.numeric) {
      if (c->name != plan.x.column) candidates.push_back(c);
    }
    return pick(candidates, *main);
  };
  auto use_count = [&]() {
    plan.y_agg = AggFunc::kCount;
    plan.count_of_x = true;
    plan.group = true;
  };
  auto use_agg = [&](AggFunc agg) -> bool {
    std::optional<AxisPick> y = pick_numeric_y();
    if (!y.has_value()) return false;
    plan.y_agg = agg;
    plan.y = *y;
    plan.group = true;
    return true;
  };
  auto random_agg = [&]() -> AggFunc {
    static const AggFunc kAggs[] = {AggFunc::kSum, AggFunc::kAvg,
                                    AggFunc::kMin, AggFunc::kMax};
    return kAggs[rng->NextIndex(4)];
  };

  switch (chart) {
    case ChartType::kScatter:
    case ChartType::kGroupingScatter: {
      std::optional<AxisPick> y = pick_numeric_y();
      if (!y.has_value()) return std::nullopt;
      plan.y = *y;
      plan.group = false;
      break;
    }
    case ChartType::kLine:
    case ChartType::kGroupingLine: {
      if (hardness == Hardness::kEasy) {
        std::optional<AxisPick> y = pick_numeric_y();
        if (!y.has_value()) return std::nullopt;
        plan.y = *y;
      } else {
        // Binned time series: count or aggregate per interval.
        if (rng->NextBool(0.5)) {
          use_count();
          plan.group = false;  // BIN provides the implicit grouping
        } else {
          if (!use_agg(random_agg())) return std::nullopt;
          plan.group = false;
        }
        BinPick bin;
        bin.col = plan.x;
        bin.unit = rng->NextBool(0.6) ? dvq::BinUnit::kMonth
                                      : (rng->NextBool(0.5)
                                             ? dvq::BinUnit::kYear
                                             : dvq::BinUnit::kWeekday);
        plan.bin = bin;
      }
      break;
    }
    case ChartType::kPie: {
      if (rng->NextBool(0.7)) {
        use_count();
      } else if (!use_agg(AggFunc::kSum)) {
        use_count();
      }
      break;
    }
    default: {  // bar, stacked bar
      if (hardness == Hardness::kEasy) {
        std::optional<AxisPick> y = pick_numeric_y();
        if (!y.has_value()) return std::nullopt;
        plan.y = *y;
      } else {
        if (rng->NextBool(0.45)) {
          use_count();
        } else if (!use_agg(random_agg())) {
          use_count();
        }
      }
      break;
    }
  }

  // --- Filter ----------------------------------------------------------
  auto make_filter = [&]() -> std::optional<FilterPick> {
    // Filter on a main-table column with a value drawn from real data so
    // the predicate is satisfiable.
    std::vector<const GeneratedColumn*> candidates;
    for (const GeneratedColumn* c : main_roles.numeric) {
      candidates.push_back(c);
    }
    for (const GeneratedColumn* c : main_roles.categorical) {
      candidates.push_back(c);
    }
    if (candidates.empty()) return std::nullopt;
    const GeneratedColumn* col = candidates[rng->NextIndex(candidates.size())];
    const storage::DataTable* data = db.data.FindTable(main->name);
    if (data == nullptr || data->num_rows() == 0) return std::nullopt;
    auto col_index = data->def().ColumnIndex(col->name);
    if (!col_index.has_value()) return std::nullopt;
    const storage::Value& sample =
        data->at(rng->NextIndex(data->num_rows()), *col_index);
    if (sample.is_null()) return std::nullopt;
    FilterPick f;
    f.col = ToAxis(*main, *col);
    if (sample.is_text()) {
      static const CompareOp kTextOps[] = {CompareOp::kEq, CompareOp::kNe,
                                           CompareOp::kLike};
      f.op = kTextOps[rng->NextIndex(3)];
      if (f.op == CompareOp::kLike) {
        const std::string& text = sample.text_value();
        std::size_t n = std::min<std::size_t>(3, text.size());
        f.literal = dvq::Literal::Str("%" + text.substr(0, n) + "%");
      } else {
        f.literal = dvq::Literal::Str(sample.text_value());
      }
    } else {
      static const CompareOp kNumOps[] = {CompareOp::kGt, CompareOp::kLt,
                                          CompareOp::kGe, CompareOp::kLe,
                                          CompareOp::kNe};
      f.op = kNumOps[rng->NextIndex(5)];
      if (sample.is_int()) {
        f.literal = dvq::Literal::Int(sample.int_value());
      } else {
        f.literal = dvq::Literal::Real(sample.real_value());
      }
    }
    return f;
  };

  auto make_subquery_filter = [&]() -> std::optional<FilterPick> {
    if (fk == nullptr || parent == nullptr) return std::nullopt;
    std::vector<const GeneratedColumn*> attrs;
    for (const GeneratedColumn* c : parent_roles.categorical) {
      attrs.push_back(c);
    }
    if (attrs.empty()) return std::nullopt;
    const GeneratedColumn* attr = attrs[rng->NextIndex(attrs.size())];
    const storage::DataTable* data = db.data.FindTable(parent->name);
    if (data == nullptr || data->num_rows() == 0) return std::nullopt;
    auto idx = data->def().ColumnIndex(attr->name);
    if (!idx.has_value()) return std::nullopt;
    const storage::Value& sample =
        data->at(rng->NextIndex(data->num_rows()), *idx);
    if (!sample.is_text()) return std::nullopt;
    FilterPick f;
    f.via_subquery = true;
    f.op = CompareOp::kEq;
    f.literal = dvq::Literal::Str(sample.text_value());
    f.sub_table = parent->name;
    f.sub_key = fk->to_column;
    f.sub_fk = fk->from_column;
    f.sub_attr = ToAxis(*parent, *attr);
    return f;
  };

  switch (hardness) {
    case Hardness::kEasy:
      break;
    case Hardness::kMedium:
      if (plan.y_agg == AggFunc::kNone && !plan.bin.has_value()) {
        plan.filter = make_filter();
        if (!plan.filter.has_value()) return std::nullopt;
      } else if (rng->NextBool(0.25)) {
        plan.filter = make_filter();
      }
      break;
    case Hardness::kHard:
      plan.filter = make_filter();
      if (!plan.filter.has_value()) return std::nullopt;
      break;
    case Hardness::kExtraHard: {
      // With no motivated JOIN the subquery is the extra-hard feature.
      const double subquery_p = plan.join.has_value() ? 0.35 : 1.0;
      if (rng->NextBool(subquery_p)) {
        std::optional<FilterPick> sub = make_subquery_filter();
        if (sub.has_value()) {
          plan.filter = sub;
        } else if (!plan.join.has_value()) {
          return std::nullopt;  // nothing makes this plan extra-hard
        } else if (rng->NextBool(0.7)) {
          plan.filter = make_filter();
        }
      } else if (rng->NextBool(0.6)) {
        plan.filter = make_filter();
      }
      break;
    }
  }

  // --- Order / limit -----------------------------------------------------
  const bool orderable = chart != ChartType::kPie;
  double order_p;
  switch (hardness) {
    case Hardness::kEasy:
      order_p = 0.55;
      break;
    case Hardness::kMedium:
      order_p = 0.45;
      break;
    default:
      order_p = 0.65;
      break;
  }
  if (orderable && rng->NextBool(order_p)) {
    OrderPick order;
    if (chart == ChartType::kLine || chart == ChartType::kGroupingLine) {
      order.on_y = false;  // time series sort on the x axis
      order.descending = rng->NextBool(0.25);
    } else {
      order.on_y = plan.y_agg != AggFunc::kNone ? rng->NextBool(0.75)
                                                : rng->NextBool(0.5);
      order.descending = rng->NextBool(0.5);
    }
    plan.order = order;
    if (hardness == Hardness::kHard && rng->NextBool(0.25)) {
      plan.limit = static_cast<std::int64_t>(rng->NextInt(3, 10));
    }
  }
  return plan;
}

std::vector<Example> QueryGenerator::Generate(std::size_t count,
                                              const std::string& prefix) {
  // Serial draw: plans, and both NLQ forks of every variant, come off the
  // one generator in the same order as a variant-by-variant loop would
  // take them. Rendering then reads only a variant's own plan and forks,
  // so it runs in parallel and still yields the same examples.
  struct Variant {
    std::size_t plan;  // index into `plans`, also the id's plan number
    std::size_t variant;
    Rng nlq_rng;
    Rng rob_rng;
  };
  std::vector<QueryPlan> plans;
  std::vector<Variant> variants;
  variants.reserve(count);
  Rng rng(options_.seed ^ Fnv1a64(prefix));
  std::size_t db_cursor = 0;
  while (variants.size() < count) {
    const GeneratedDatabase& db =
        (*databases_)[db_cursor % databases_->size()];
    ++db_cursor;
    std::optional<QueryPlan> plan;
    for (int tries = 0; tries < 12 && !plan.has_value(); ++tries) {
      plan = SamplePlan(db, &rng);
    }
    if (!plan.has_value()) continue;
    // Several NLQ surface variants share the same plan (and target DVQ),
    // mirroring nvBench's multiple questions per visualization.
    const std::size_t plan_index = plans.size();
    plans.push_back(std::move(*plan));
    for (std::size_t variant = 0;
         variant < options_.variants_per_plan && variants.size() < count;
         ++variant) {
      Rng nlq_rng = rng.Fork();
      Rng rob_rng = rng.Fork();
      variants.push_back(Variant{plan_index, variant, nlq_rng, rob_rng});
    }
  }

  std::vector<Example> out(variants.size());
  ParallelFor(variants.size(), [&](std::size_t i) {
    Variant& v = variants[i];
    const QueryPlan& plan = plans[v.plan];
    Example& ex = out[i];
    ex.id = strings::Format("%s%05zu-v%zu", prefix.c_str(), v.plan,
                            v.variant);
    ex.db_name = plan.db_name;
    ex.dvq = PlanToDvq(plan);
    ex.hardness = plan.hardness;
    ex.nlq = RenderNlq(plan, NlqStyle::kExplicit, &v.nlq_rng, *lexicon_);
    ex.nlq_rob = RenderNlq(plan, NlqStyle::kParaphrased, &v.rob_rng,
                           *lexicon_);
  });
  return out;
}

}  // namespace gred::dataset
