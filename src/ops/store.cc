#include "ops/store.h"

#include <algorithm>
#include <utility>

#include "ops/serde_util.h"

namespace albic::ops {

StoreSinkOperator::StoreSinkOperator(int num_groups)
    : table_(static_cast<size_t>(num_groups)),
      flushes_(static_cast<size_t>(num_groups), 0) {}

void StoreSinkOperator::Process(const engine::Tuple& tuple, int group_index,
                                engine::Emitter* out) {
  (void)out;  // sink: no downstream
  table_[group_index][tuple.key] = tuple.num;
  if (engine::StateChangeTracker* t = tracker(group_index)) {
    t->MarkDirty(tuple.key);
  }
}

void StoreSinkOperator::OnWindow(int group_index, engine::Emitter* out) {
  (void)out;
  // Periodic flush to the "database": modeled as a counter.
  ++flushes_[group_index];
}

double StoreSinkOperator::ValueFor(int group_index, uint64_t key) const {
  const double* v = table_[group_index].find(key);
  return v == nullptr ? 0.0 : *v;
}

std::string StoreSinkOperator::SerializeGroupState(int group_index) const {
  StateWriter w;
  const auto& m = table_[group_index];
  // Canonical order: equal tables serialize identically whatever the
  // insertion history (live vs. checkpoint + replay reconstruction).
  std::vector<std::pair<uint64_t, double>> rows;
  rows.reserve(m.size());
  for (const auto& [key, value] : m) rows.emplace_back(key, value);
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.PutU64(rows.size());
  for (const auto& [key, value] : rows) {
    w.PutU64(key);
    w.PutDouble(value);
  }
  w.PutI64(flushes_[group_index]);
  return w.Take();
}

Status StoreSinkOperator::DeserializeGroupState(int group_index,
                                                const std::string& data) {
  StateReader r(data);
  uint64_t n = 0;
  ALBIC_RETURN_NOT_OK(r.GetU64(&n));
  auto& m = table_[group_index];
  m.clear();
  m.Reserve(n);  // land on the final capacity instead of growing through it
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    double value = 0.0;
    ALBIC_RETURN_NOT_OK(r.GetU64(&key));
    ALBIC_RETURN_NOT_OK(r.GetDouble(&value));
    m[key] = value;
  }
  if (engine::StateChangeTracker* t = tracker(group_index)) t->MarkReset();
  return r.GetI64(&flushes_[group_index]);
}

void StoreSinkOperator::ClearGroupState(int group_index) {
  table_[group_index].clear();
  flushes_[group_index] = 0;
  if (engine::StateChangeTracker* t = tracker(group_index)) t->MarkReset();
}

std::string StoreSinkOperator::SerializeGroupDelta(int group_index) const {
  StateWriter w;
  const engine::StateChangeTracker* t = tracker(group_index);
  WriteMapDelta(w, *t, table_[group_index],
                [](StateWriter& out, double v) { out.PutDouble(v); });
  // The flush counter is a few bytes; deltas always carry it whole.
  w.PutI64(flushes_[group_index]);
  return w.Take();
}

Status StoreSinkOperator::ApplyGroupDelta(int group_index,
                                          const std::string& data) {
  StateReader r(data);
  ALBIC_RETURN_NOT_OK(ReadMapDelta(
      r, table_[group_index],
      [](StateReader& in, double* v) { return in.GetDouble(v); }));
  return r.GetI64(&flushes_[group_index]);
}

}  // namespace albic::ops
