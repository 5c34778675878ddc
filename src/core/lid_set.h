// LidSet: the auditor's explained-lid set, kept as sorted, pairwise-disjoint
// runs of lids. An insert adds a batch's new members as one run, then merges
// runs like a binary counter, so each run is at least twice the size of the
// next: there are O(log n) runs, each lid is merged O(log n) times, and a
// lookup is one binary search per run. A batch that is already sorted — the
// checkpoint's explained lids on recovery — becomes a run without a sort.

#ifndef EBA_CORE_LID_SET_H_
#define EBA_CORE_LID_SET_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace eba {

/// Sorts and deduplicates `lids` in place.
void SortUniqueLids(std::vector<int64_t>* lids);

class LidSet {
 public:
  /// Adds `lids` (any order, duplicates allowed; members already present
  /// are ignored).
  void Insert(std::vector<int64_t> lids);

  bool Contains(int64_t lid) const;
  size_t size() const { return size_; }
  void clear();

  /// Every member, ascending.
  std::vector<int64_t> ToSortedVector() const;
  std::unordered_set<int64_t> ToUnorderedSet() const;
  /// True when `other` holds exactly this set's members.
  bool Equals(const std::unordered_set<int64_t>& other) const;

 private:
  /// Sorted, pairwise-disjoint runs; each at least twice the size of the
  /// next.
  std::vector<std::vector<int64_t>> runs_;
  size_t size_ = 0;
};

}  // namespace eba

#endif  // EBA_CORE_LID_SET_H_
