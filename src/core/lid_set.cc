#include "core/lid_set.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace eba {

namespace {

/// `a` ∪ `b`, both sorted and disjoint.
std::vector<int64_t> MergeRuns(const std::vector<int64_t>& a,
                               const std::vector<int64_t>& b) {
  std::vector<int64_t> merged;
  merged.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(merged));
  return merged;
}

}  // namespace

void SortUniqueLids(std::vector<int64_t>* lids) {
  std::sort(lids->begin(), lids->end());
  lids->erase(std::unique(lids->begin(), lids->end()), lids->end());
}

bool LidSet::Contains(int64_t lid) const {
  for (const std::vector<int64_t>& run : runs_) {
    if (std::binary_search(run.begin(), run.end(), lid)) return true;
  }
  return false;
}

void LidSet::Insert(std::vector<int64_t> lids) {
  if (std::is_sorted(lids.begin(), lids.end())) {
    lids.erase(std::unique(lids.begin(), lids.end()), lids.end());
  } else {
    SortUniqueLids(&lids);
  }
  lids.erase(std::remove_if(lids.begin(), lids.end(),
                            [this](int64_t lid) { return Contains(lid); }),
             lids.end());
  if (lids.empty()) return;
  size_ += lids.size();
  runs_.push_back(std::move(lids));
  while (runs_.size() >= 2 &&
         runs_[runs_.size() - 2].size() < 2 * runs_.back().size()) {
    runs_[runs_.size() - 2] = MergeRuns(runs_[runs_.size() - 2], runs_.back());
    runs_.pop_back();
  }
}

void LidSet::clear() {
  runs_.clear();
  size_ = 0;
}

std::vector<int64_t> LidSet::ToSortedVector() const {
  if (runs_.empty()) return {};
  // Smallest run first: the geometric sizes keep the total merge work O(n).
  std::vector<int64_t> out = runs_.back();
  for (size_t i = runs_.size() - 1; i-- > 0;) out = MergeRuns(runs_[i], out);
  return out;
}

std::unordered_set<int64_t> LidSet::ToUnorderedSet() const {
  const std::vector<int64_t> lids = ToSortedVector();
  return std::unordered_set<int64_t>(lids.begin(), lids.end());
}

bool LidSet::Equals(const std::unordered_set<int64_t>& other) const {
  if (other.size() != size_) return false;
  for (int64_t lid : other) {
    if (!Contains(lid)) return false;
  }
  return true;
}

}  // namespace eba
