#include "src/sized/sized_qdlp.h"

#include <algorithm>
#include <cmath>

namespace qdlp {

SizedGhost::SizedGhost(uint64_t byte_budget) : byte_budget_(byte_budget) {
  QDLP_CHECK(byte_budget >= 1);
}

void SizedGhost::Insert(ObjectId id, uint64_t size) {
  // Invariant: charged_ is the byte sum of the fifo_ records. A refresh
  // re-ages the entry and moves its charge to the new size.
  const uint32_t* slot = live_.Find(id);
  if (slot != nullptr) {
    Record& record = fifo_[*slot];
    charged_ += size - record.size;
    record.size = size;
    fifo_.MoveToBack(*slot);
  } else {
    live_[id] = fifo_.PushBack(Record{id, size});
    charged_ += size;
  }
  while (charged_ > byte_budget_ && !fifo_.empty()) {
    const uint32_t oldest = fifo_.front();
    charged_ -= fifo_[oldest].size;
    live_.Erase(fifo_[oldest].id);
    fifo_.Erase(oldest);
  }
}

bool SizedGhost::Consume(ObjectId id) {
  uint32_t slot;
  if (!live_.Erase(id, &slot)) {
    return false;
  }
  charged_ -= fifo_[slot].size;
  fifo_.Erase(slot);
  return true;
}

SizedQdCache::SizedQdCache(uint64_t probation_capacity,
                           std::unique_ptr<SizedEvictionPolicy> main,
                           const std::string& name)
    : SizedEvictionPolicy(probation_capacity + main->byte_capacity(),
                          name.empty() ? "sized-qd-" + main->name() : name),
      probation_capacity_(probation_capacity),
      main_(std::move(main)),
      ghost_(main_->byte_capacity()) {
  QDLP_CHECK(probation_capacity_ >= 1);
}

namespace {

uint64_t ProbationBytesFor(uint64_t byte_capacity, double probation_fraction) {
  QDLP_CHECK(probation_fraction > 0.0 && probation_fraction < 1.0);
  uint64_t probation = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(static_cast<double>(byte_capacity) *
                                            probation_fraction)));
  if (byte_capacity > 1) {
    probation = std::min(probation, byte_capacity - 1);
  }
  return probation;
}

}  // namespace

SizedQdLpFifo::SizedQdLpFifo(uint64_t byte_capacity, double probation_fraction,
                             int clock_bits)
    : SizedQdCache(
          ProbationBytesFor(byte_capacity, probation_fraction),
          std::make_unique<SizedClockPolicy>(
              byte_capacity - ProbationBytesFor(byte_capacity,
                                                probation_fraction),
              clock_bits),
          "sized-qd-lp-fifo") {}

void SizedQdCache::EvictFromProbation() {
  QDLP_DCHECK(!probation_fifo_.empty());
  const ObjectId victim = probation_fifo_.front();
  probation_fifo_.pop_front();
  const auto it = probation_index_.find(victim);
  QDLP_DCHECK(it != probation_index_.end());
  const ProbationEntry entry = it->second;
  probation_index_.erase(it);
  probation_bytes_ -= entry.size;
  if (entry.accessed) {
    ++promotions_;
    main_->Access(victim, entry.size);  // admit into the main clock
  } else {
    ++quick_demotions_;
    ghost_.Insert(victim, entry.size);
  }
}

bool SizedQdCache::OnAccess(ObjectId id, uint64_t size) {
  const auto probation_it = probation_index_.find(id);
  if (probation_it != probation_index_.end()) {
    probation_it->second.accessed = true;
    return true;
  }
  if (main_->Contains(id)) {
    return main_->Access(id, size);
  }
  if (ghost_.Consume(id)) {
    ++ghost_admissions_;
    main_->Access(id, size);
    return false;
  }
  if (size > probation_capacity_) {
    // Oversized for probation: admit straight into main (it could never
    // survive a probation lap anyway). Keeps the capacity invariant intact.
    main_->Access(id, size);
    return false;
  }
  while (probation_bytes_ + size > probation_capacity_) {
    EvictFromProbation();
  }
  probation_fifo_.push_back(id);
  probation_index_[id] = ProbationEntry{size, false};
  probation_bytes_ += size;
  return false;
}

}  // namespace qdlp
