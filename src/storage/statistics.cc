#include "storage/statistics.h"

namespace eba {

void IncrementalColumnStats::ExtendTo(const Column& column) {
  const size_t n = column.size();
  // True no-op when nothing was appended: readers may hold the returned
  // stats reference outside the table's lazy mutex, so an already-current
  // summary must not be rewritten (even with identical values).
  if (n == rows_seen_) return;
  if (column.IsIntLike()) {
    // Chunk-aware fold over the raw int64 payload: distinct set and
    // min/max run over per-chunk arrays (int-like Values order as their
    // raw payloads); the extrema are boxed once, after the fold.
    bool has_range = !stats_.min.is_null();
    int64_t lo = has_range ? stats_.min.RawInt64() : 0;
    int64_t hi = has_range ? stats_.max.RawInt64() : 0;
    size_t lo_row = n;  // row of a new extremum; n = none this fold
    size_t hi_row = n;
    column.ForEachInt64Span(
        rows_seen_, n,
        [&](size_t first_row, const int64_t* data, size_t count) {
          for (size_t i = 0; i < count; ++i) {
            if (column.IsNull(first_row + i)) continue;
            const int64_t x = data[i];
            distinct_ints_.insert(x);
            if (!has_range || x < lo) {
              lo = x;
              lo_row = first_row + i;
            }
            if (!has_range || x > hi) {
              hi = x;
              hi_row = first_row + i;
            }
            has_range = true;
          }
        });
    if (lo_row < n) stats_.min = column.Get(lo_row);
    if (hi_row < n) stats_.max = column.Get(hi_row);
  } else {
    for (size_t row = rows_seen_; row < n; ++row) {
      if (column.IsNull(row)) continue;
      Value v = column.Get(row);
      if (!column.IsString()) {  // string distinct uses the dictionary
        distinct_values_.insert(v);
      }
      if (stats_.min.is_null()) {
        stats_.min = v;
        stats_.max = std::move(v);
      } else {
        if (v < stats_.min) stats_.min = v;
        if (stats_.max < v) stats_.max = std::move(v);
      }
    }
  }
  rows_seen_ = n;
  stats_.num_rows = n;
  stats_.num_nulls = column.NullCount();
  if (column.IsString()) {
    // Dictionary size equals the exact distinct count (codes are only
    // minted for strings that occur); min/max still required the scan
    // above because dictionary order is insertion order.
    stats_.num_distinct = column.DictionarySize();
  } else {
    stats_.num_distinct = column.IsIntLike() ? distinct_ints_.size()
                                             : distinct_values_.size();
  }
}

ColumnStats ComputeColumnStats(const Column& column) {
  IncrementalColumnStats incremental;
  incremental.ExtendTo(column);
  return incremental.stats();
}

}  // namespace eba
