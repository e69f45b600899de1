#include "sim/events.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace whitefi {

namespace {

/// Highest byte index in which two times differ (0 when equal): the wheel
/// level an event at `time` occupies relative to cursor `cur`.
inline int LevelOf(std::uint64_t time, std::uint64_t cur) {
  const std::uint64_t diff = time ^ cur;
  if (diff == 0) return 0;
  return (63 - std::countl_zero(diff)) >> 3;
}

}  // namespace

Simulator::Simulator() : buckets_(kNumBuckets) {}

std::uint32_t Simulator::AllocSlot() {
  if (free_slots_.empty()) GrowArena();
  const std::uint32_t index = free_slots_.back();
  free_slots_.pop_back();
  return index;
}

void Simulator::GrowArena() {
  const auto base = static_cast<std::uint32_t>(chunks_.size()) * kChunkSize;
  assert(base + kChunkSize - 1 <= kSlotMask);
  chunks_.push_back(std::make_unique<Chunk>());
  generation_.resize(base + kChunkSize, 1);
  loc_.resize(base + kChunkSize, Location{kNoIndex, 0});
  // Lowest index on top of the free stack.
  for (std::uint32_t i = kChunkSize; i-- > 0;) free_slots_.push_back(base + i);
}

void Simulator::ReleaseSlot(std::uint32_t index) {
  if (++generation_[index] == 0) generation_[index] = 1;  // Skip sentinel 0.
  loc_[index].bucket = kNoIndex;
  free_slots_.push_back(index);
}

EventId Simulator::PushScheduled(SimTime at, std::uint32_t index) {
  PlaceEntry(Entry{std::max(at, now_), (next_seq_++ << kSlotBits) | index});
  ++pending_;
  return (static_cast<EventId>(generation_[index]) << 32) | index;
}

void Simulator::PlaceEntry(const Entry& entry) {
  const int level = LevelOf(static_cast<std::uint64_t>(entry.time),
                            static_cast<std::uint64_t>(cur_));
  const auto index = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(entry.time) >> (kLevelBits * level)) &
      kByteMask);
  const std::uint32_t bucket = level * kBucketsPerLevel + index;
  std::vector<Entry>& b = buckets_[bucket];
  std::vector<std::vector<Entry>>& spare = spare_[level];
  if (b.capacity() == 0 && !spare.empty()) {
    b = std::move(spare.back());
    spare.pop_back();
  }
  loc_[entry.key & kSlotMask] =
      Location{bucket, static_cast<std::uint32_t>(b.size())};
  b.push_back(entry);
  SetOcc(level, index);
}

int Simulator::NextOccupied(int level, std::uint32_t from) const {
  if (from >= kBucketsPerLevel) return -1;
  std::uint32_t word = from >> 6;
  std::uint64_t bits = occ_[level][word] & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    if (bits != 0) {
      return static_cast<int>(word * 64 +
                              static_cast<std::uint32_t>(std::countr_zero(bits)));
    }
    if (++word == kBucketsPerLevel / 64) return -1;
    bits = occ_[level][word];
  }
}

void Simulator::Cascade(int level, std::uint32_t index, SimTime window_start) {
  // Advancing the cursor first is what makes every entry land strictly
  // lower: their byte `level` now matches the cursor's.
  cur_ = window_start;
  std::vector<Entry>& b = buckets_[level * kBucketsPerLevel + index];
  for (const Entry& entry : b) PlaceEntry(entry);
  // A coarse bucket is not reused until the cursor laps its level, so its
  // buffer goes back to the level's spare stack instead of sitting idle.
  // (Tick buckets keep theirs: they are reused every 256 ticks, and
  // recycling them per drained tick cost sparse workloads ~7%.)
  b.clear();
  spare_[level].push_back(std::exchange(b, {}));
  ClearOcc(level, index);
}

std::size_t Simulator::BucketCapacity() const {
  std::size_t total = 0;
  for (const std::vector<Entry>& b : buckets_) total += b.capacity();
  for (const auto& spare : spare_) {
    for (const std::vector<Entry>& b : spare) total += b.capacity();
  }
  return total;
}

void Simulator::EnterDrain(std::uint32_t bucket, SimTime tick) {
  std::vector<Entry>& b = buckets_[bucket];
  if (b.size() > 1) {
    // Keys are (seq << kSlotBits | slot), so this is schedule order — the
    // determinism contract.  Bucket order is arbitrary here (cascades and
    // swap-remove cancellations shuffle it); the sort happens exactly once
    // per tick, and same-tick events scheduled during the drain append in
    // seq order so they stay sorted.
    std::sort(b.begin(), b.end(),
              [](const Entry& x, const Entry& y) { return x.key < y.key; });
    for (std::uint32_t pos = 0; pos < b.size(); ++pos) {
      loc_[b[pos].key & kSlotMask].pos = pos;
    }
  }
  draining_ = bucket;
  draining_tick_ = tick;
  drain_pos_ = 0;
}

bool Simulator::PrepareNext(SimTime until) {
  for (;;) {
    if (draining_ != kNoIndex) {
      std::vector<Entry>& b = buckets_[draining_];
      while (drain_pos_ < b.size() && b[drain_pos_].key == kDeadKey) {
        ++drain_pos_;
      }
      if (drain_pos_ < b.size()) return draining_tick_ <= until;
      b.clear();
      ClearOcc(0, draining_);
      draining_ = kNoIndex;
      drain_pos_ = 0;
    }
    if (pending_ == 0) return false;
    const auto cur = static_cast<std::uint64_t>(cur_);
    // A level-0 hit in the current 256-tick window is always the global
    // minimum: any higher-level window starts past this window's end.
    const int tick_bit =
        NextOccupied(0, static_cast<std::uint32_t>(cur & kByteMask));
    if (tick_bit >= 0) {
      const auto tick = static_cast<SimTime>((cur & ~std::uint64_t{kByteMask}) |
                                             static_cast<std::uint64_t>(tick_bit));
      if (tick > until) return false;
      EnterDrain(static_cast<std::uint32_t>(tick_bit), tick);
      continue;
    }
    // Cascade the lowest occupied level's next bucket: for L < L', window
    // W_L < W_{L'} (W_L keeps the cursor's byte L' while W_{L'} exceeds
    // it), so the lowest level always holds the earliest work.
    for (int level = 1; level < kNumLevels; ++level) {
      const auto byte = static_cast<std::uint32_t>(
          (cur >> (kLevelBits * level)) & kByteMask);
      const int bit = NextOccupied(level, byte + 1);
      if (bit < 0) continue;
      const std::uint64_t window_mask =
          level + 1 == kNumLevels
              ? ~std::uint64_t{0}
              : (std::uint64_t{1} << (kLevelBits * (level + 1))) - 1;
      const auto window_start = static_cast<SimTime>(
          (cur & ~window_mask) |
          (static_cast<std::uint64_t>(bit) << (kLevelBits * level)));
      if (window_start > until) return false;
      Cascade(level, static_cast<std::uint32_t>(bit), window_start);
      break;
    }
    // pending_ > 0 guarantees some level matched; loop to re-scan level 0.
  }
}

bool Simulator::Cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (generation == 0) return false;  // kInvalidEventId or malformed.
  if (static_cast<std::size_t>(index) >= generation_.size()) {
    return false;  // Never-issued slot.
  }
  if (generation_[index] != generation) {
    return false;  // Already fired or cancelled; nothing retained.
  }
  const Location loc = loc_[index];
  assert(loc.bucket != kNoIndex);
  std::vector<Entry>& b = buckets_[loc.bucket];
  if (loc.bucket == draining_) {
    // The sorted drain order must survive, so dead-mark in place; the
    // entry is reclaimed when the tick finishes draining.
    b[loc.pos].key = kDeadKey;
  } else {
    // Swap-remove: O(1), and order within a bucket is irrelevant until
    // its drain-time sort.
    b[loc.pos] = b.back();
    b.pop_back();
    if (loc.pos < b.size()) loc_[b[loc.pos].key & kSlotMask].pos = loc.pos;
    if (b.empty()) {
      ClearOcc(static_cast<int>(loc.bucket / kBucketsPerLevel),
               loc.bucket % kBucketsPerLevel);
    }
  }
  CbAt(index).Reset();  // Destroy the callback eagerly.
  ReleaseSlot(index);
  --pending_;
  return true;
}

void Simulator::FireLoop(SimTime until) {
  stopped_ = false;
  while (!stopped_ && PrepareNext(until)) {
    const Entry entry = buckets_[draining_][drain_pos_++];
    const auto index = static_cast<std::uint32_t>(entry.key & kSlotMask);
    now_ = entry.time;
    cur_ = entry.time;
    EventCallback cb = std::move(CbAt(index));
    // Release before invoking: the callback may reschedule into this slot,
    // and Cancel of the now-fired id must miss (generation already bumped).
    ReleaseSlot(index);
    --pending_;
    ++processed_;
    cb();
  }
}

void Simulator::Run(SimTime until) {
  FireLoop(until);
  if (!stopped_) now_ = std::max(now_, until);
}

void Simulator::RunUntilIdle() {
  FireLoop(std::numeric_limits<SimTime>::max());
}

}  // namespace whitefi
