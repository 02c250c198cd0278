#include "bullet/server.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

#include "common/log.h"
#include "obs/trace.h"

namespace bullet {
namespace {

constexpr char kLog[] = "bullet";

}  // namespace

std::shared_lock<std::shared_mutex> BulletServer::lock_shared() const {
  // The trace span covers the whole acquisition (near-zero when the try
  // succeeds); lock_wait_ns_ keeps counting only genuinely blocked time.
  obs::ScopedSpan span(obs::Stage::kLockShared);
  std::shared_lock<std::shared_mutex> lock(state_mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    const auto t0 = std::chrono::steady_clock::now();
    lock.lock();
    lock_wait_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count(),
        std::memory_order_relaxed);
  }
  return lock;
}

std::unique_lock<std::shared_mutex> BulletServer::lock_exclusive() const {
  obs::ScopedSpan span(obs::Stage::kLockExcl);
  std::unique_lock<std::shared_mutex> lock(state_mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    const auto t0 = std::chrono::steady_clock::now();
    lock.lock();
    lock_wait_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count(),
        std::memory_order_relaxed);
  }
  return lock;
}

std::shared_ptr<const void> BulletServer::make_retainer(RnodeIndex rnode) {
  FileCache* cache = &cache_;
  // The pointer value is only a non-null token (so `if (retainer)` means
  // "pinned"); the deleter carries the actual release.
  return std::shared_ptr<const void>(
      reinterpret_cast<const void*>(static_cast<std::uintptr_t>(rnode)),
      [cache, rnode](const void*) { cache->unpin(rnode); });
}

Status BulletServer::format(BlockDevice& device, std::uint32_t inode_slots) {
  const std::uint64_t bs = device.block_size();
  if (bs < Inode::kDiskSize || bs % Inode::kDiskSize != 0) {
    return Error(ErrorCode::bad_argument, "block size must be a multiple of 16");
  }
  if (inode_slots < 2) {
    return Error(ErrorCode::bad_argument, "need at least one file inode");
  }
  const std::uint64_t control_blocks =
      (static_cast<std::uint64_t>(inode_slots) * Inode::kDiskSize + bs - 1) / bs;
  if (control_blocks >= device.num_blocks()) {
    return Error(ErrorCode::bad_argument, "inode table exceeds device");
  }
  DiskDescriptor desc;
  desc.block_size = static_cast<std::uint32_t>(bs);
  desc.control_blocks = static_cast<std::uint32_t>(control_blocks);
  desc.data_blocks =
      static_cast<std::uint32_t>(device.num_blocks() - control_blocks);

  // Zero-filled inode table with the descriptor in slot 0.
  Bytes control(control_blocks * bs, 0);
  desc.encode(MutableByteSpan(control.data(), DiskDescriptor::kDiskSize));
  BULLET_RETURN_IF_ERROR(device.write(0, control));
  return device.flush();
}

BulletServer::BulletServer(MirroredDisk* disk, BulletConfig config,
                           DiskLayout layout)
    : disk_(disk),
      config_(config),
      layout_(layout),
      public_port_(derive_public_port(config.private_port)),
      sealer_(config.secret),
      rng_(config.rng_seed),
      disk_free_(layout.data_start_block(), layout.data_blocks()),
      // Block-aligned arena: cache allocations round up to device blocks
      // so create/miss traffic moves directly between disk and arena.
      cache_(config.cache_bytes, layout.block_size()),
      push_lane_(nullptr, config.io_threads > 0 ? 1 : 0),
      io_(disk, config.io_threads) {
  // The super capability's random is derived from the server secret so it
  // is stable across reboots without being stored on disk.
  super_random_ = Speck64(config_.secret).encrypt(config_.private_port) & kMask48;
  if (super_random_ == 0) super_random_ = 1;

  // The one metrics group this server exports (kStats2). Every ServerStats
  // counter appears under a stable name, plus cache internals and the
  // latency histograms; the canonical name list lives in docs/PROTOCOL.md
  // and is pinned by the obs introspection test. Rendered lock-free here —
  // stats() takes its own shared lock.
  metrics_.register_group([this](obs::MetricEmitter& e) {
    const wire::ServerStats s = stats();
    const FileCache::Stats cs = cache_.stats();
    e.value("bullet_creates_total", s.creates);
    e.value("bullet_reads_total", s.reads);
    e.value("bullet_deletes_total", s.deletes);
    e.value("bullet_cache_hits_total", s.cache_hits);
    e.value("bullet_cache_misses_total", s.cache_misses);
    e.value("bullet_cache_evictions_total", s.cache_evictions);
    e.value("bullet_bytes_stored_total", s.bytes_stored);
    e.value("bullet_bytes_served_total", s.bytes_served);
    e.value("bullet_files_live", s.files_live);
    e.value("bullet_disk_free_bytes", s.disk_free_bytes);
    e.value("bullet_disk_largest_hole_bytes", s.disk_largest_hole_bytes);
    e.value("bullet_disk_holes", s.disk_holes);
    e.value("bullet_cache_free_bytes", s.cache_free_bytes);
    e.value("bullet_healthy_replicas", s.healthy_replicas);
    e.value("bullet_bytes_copied_total", s.bytes_copied);
    e.value("bullet_scratch_allocs_total", s.scratch_allocs);
    e.value("bullet_evict_scans_total", s.evict_scans);
    e.value("bullet_io_errors_total", s.io_errors);
    e.value("bullet_read_repairs_total", s.read_repairs);
    e.value("bullet_failovers_total", s.failovers);
    e.value("bullet_bg_write_failures_total", s.bg_write_failures);
    e.value("bullet_rx_batches_total", s.rx_batches);
    e.value("bullet_worker_wakeups_total", s.worker_wakeups);
    e.value("bullet_lock_wait_ns_total", s.lock_wait_ns);
    e.value("bullet_pinned_evict_defers_total", s.pinned_evict_defers);
    e.value("bullet_disk_inflight", s.disk_inflight);
    e.value("bullet_disk_queue_depth_max", s.disk_queue_depth_max);
    e.value("bullet_compact_steps_total", s.compact_steps);
    e.value("bullet_compact_lock_hold_ns_max", s.compact_lock_hold_ns_max);
    e.value("bullet_shed_pushback_total", s.shed_pushback);
    e.value("bullet_shed_dropped_total", s.shed_dropped);
    e.value("bullet_deadline_expired_total", s.deadline_expired);
    e.value("bullet_rx_queue_depth_max", s.rx_queue_depth_max);
    e.value("bullet_inflight_sheds_total", s.inflight_sheds);
    e.value("bullet_repl_role", s.repl_role);
    e.value("bullet_repl_peer_healthy", s.repl_peer_healthy);
    e.value("bullet_repl_pushes_total", s.repl_pushes);
    e.value("bullet_repl_push_failures_total", s.repl_push_failures);
    e.value("bullet_repl_installs_total", s.repl_installs);
    e.value("bullet_repl_resyncs_total", s.repl_resyncs);
    e.value("bullet_repl_resync_files_total", s.repl_resync_files);
    e.value("bullet_repl_dedup_hits_total", s.repl_dedup_hits);
    e.value("bullet_shard_id", s.shard_id);
    e.value("bullet_shard_epoch", s.shard_epoch);
    e.value("bullet_wrong_shard_replies_total", s.wrong_shard_replies);
    e.value("bullet_shard_map_installs_total", s.shard_map_installs);
    e.value("bullet_cache_capacity_bytes", cs.capacity);
    e.value("bullet_cache_used_bytes", cs.used);
    e.value("bullet_cache_entries", cs.entries);
    e.value("bullet_cache_compactions_total", cs.compactions);
    e.value("bullet_cache_deferred_frees_total", cs.deferred_frees);
    e.histogram("bullet_read_latency_ns", read_latency_ns_.snapshot());
    e.histogram("bullet_create_latency_ns", create_latency_ns_.snapshot());
    e.histogram("bullet_delete_latency_ns", delete_latency_ns_.snapshot());
    e.histogram("bullet_disk_read_latency_ns", disk_read_latency_ns_.snapshot());
    e.histogram("bullet_disk_write_latency_ns",
                disk_write_latency_ns_.snapshot());
  });
}

Result<std::unique_ptr<BulletServer>> BulletServer::start(
    MirroredDisk* disk, BulletConfig config) {
  if (disk == nullptr) return Error(ErrorCode::bad_argument, "null disk");
  Bytes block0(disk->block_size());
  BULLET_RETURN_IF_ERROR(disk->read(0, block0));
  BULLET_ASSIGN_OR_RETURN(
      const DiskDescriptor desc,
      DiskDescriptor::decode(ByteSpan(block0.data(), DiskDescriptor::kDiskSize)));
  if (desc.block_size != disk->block_size()) {
    return Error(ErrorCode::corrupt, "descriptor block size mismatch");
  }
  if (static_cast<std::uint64_t>(desc.control_blocks) + desc.data_blocks >
      disk->num_blocks()) {
    return Error(ErrorCode::corrupt, "descriptor exceeds device");
  }
  auto server = std::unique_ptr<BulletServer>(
      new BulletServer(disk, config, DiskLayout(desc)));
  BULLET_RETURN_IF_ERROR(server->boot());
  return server;
}

Status BulletServer::boot() {
  // "When the file server starts up, it reads the complete inode table into
  //  the RAM inode table and keeps it there permanently."
  const std::uint64_t bs = layout_.block_size();
  const std::uint32_t slots = layout_.inode_slots();
  Bytes control(static_cast<std::size_t>(layout_.descriptor().control_blocks) * bs);
  BULLET_RETURN_IF_ERROR(disk_->read(0, control));

  inodes_.assign(slots, Inode{});
  boot_report_ = wire::FsckReport{};
  boot_report_.inodes_scanned = slots > 0 ? slots - 1 : 0;

  struct Extent {
    std::uint64_t first;
    std::uint64_t blocks;
    std::uint32_t index;
  };
  std::vector<Extent> extents;
  std::vector<std::uint64_t> dirty_blocks;  // inode blocks needing rewrite

  const std::uint64_t data_lo = layout_.data_start_block();
  const std::uint64_t data_hi = data_lo + layout_.data_blocks();

  for (std::uint32_t i = 1; i < slots; ++i) {
    Inode inode = Inode::decode(
        ByteSpan(control.data() + static_cast<std::size_t>(i) * Inode::kDiskSize,
                 Inode::kDiskSize));
    if (inode.cache_index != 0) {
      // "The index has no significance on disk."
      inode.cache_index = 0;
      ++boot_report_.cleared_cache_fields;
    }
    if (inode.is_free()) {
      inodes_[i] = Inode{};
      continue;
    }
    const std::uint64_t blocks = layout_.blocks_for(inode.size_bytes);
    const bool in_bounds =
        blocks == 0 ||
        (inode.first_block >= data_lo && inode.first_block + blocks <= data_hi);
    if (!in_bounds) {
      BULLET_LOG(warn, kLog) << "fsck: inode " << i << " out of bounds, cleared";
      inodes_[i] = Inode{};
      ++boot_report_.cleared_bad_bounds;
      dirty_blocks.push_back(layout_.inode_device_block(i));
      continue;
    }
    inodes_[i] = inode;
    if (blocks > 0) extents.push_back({inode.first_block, blocks, i});
  }

  // "the file server performs some consistency checks, for example to make
  //  sure that files do not overlap."
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.first < b.first; });
  std::uint64_t prev_end = 0;
  for (const Extent& e : extents) {
    if (e.first < prev_end) {
      BULLET_LOG(warn, kLog) << "fsck: inode " << e.index
                             << " overlaps a neighbour, cleared";
      inodes_[e.index] = Inode{};
      ++boot_report_.cleared_overlaps;
      dirty_blocks.push_back(layout_.inode_device_block(e.index));
      continue;
    }
    prev_end = e.first + e.blocks;
  }

  // Build the free lists from the surviving inodes.
  live_files_ = 0;
  free_inodes_.clear();
  for (std::uint32_t i = slots; i-- > 1;) {
    if (inodes_[i].is_free()) {
      free_inodes_.push_back(i);
      continue;
    }
    ++live_files_;
  }
  BULLET_RETURN_IF_ERROR(rebuild_disk_free());

  // Push repairs back out so the next boot is clean.
  std::sort(dirty_blocks.begin(), dirty_blocks.end());
  dirty_blocks.erase(std::unique(dirty_blocks.begin(), dirty_blocks.end()),
                     dirty_blocks.end());
  for (const std::uint64_t b : dirty_blocks) {
    const Status st = disk_->write(b, serialize_inode_block(b));
    if (!st.ok()) {
      BULLET_LOG(warn, kLog) << "fsck: rewrite of inode block " << b
                             << " failed: " << st.to_string();
    }
  }
  if (boot_report_.repairs() > 0) {
    BULLET_LOG(warn, kLog) << "fsck repaired " << boot_report_.repairs()
                           << " inode(s)";
  }
  boot_report_.files = live_files_;

  // Audit the mirror's "identical replicas" invariant, healing divergence
  // toward the main disk — the replica that just provided the inode table,
  // so repair can only propagate the state the server booted from. A scrub
  // failure is not fatal: the server runs on what it has, just degraded.
  if (config_.scrub_on_boot && disk_->replica_count() > 1 &&
      disk_->healthy_count() > 1) {
    const auto scrub = disk_->scrub(/*repair=*/true);
    if (!scrub.ok()) {
      BULLET_LOG(warn, kLog) << "boot scrub failed: "
                             << scrub.error().to_string();
    } else if (scrub.value().mismatched_blocks > 0) {
      BULLET_LOG(warn, kLog) << "boot scrub: replicas diverged on "
                             << scrub.value().mismatched_blocks
                             << " block(s), " << scrub.value().repaired_blocks
                             << " repaired";
    }
  }
  if (disk_->healthy_count() < disk_->replica_count()) {
    BULLET_LOG(warn, kLog)
        << "DEGRADED MODE: " << disk_->healthy_count() << "/"
        << disk_->replica_count()
        << " replicas healthy; service continues without full redundancy";
  }
  return Status::success();
}

Status BulletServer::rebuild_disk_free() {
  disk_free_ =
      ExtentAllocator(layout_.data_start_block(), layout_.data_blocks());
  for (std::uint32_t i = 1; i < inodes_.size(); ++i) {
    if (inodes_[i].is_free()) continue;
    const std::uint64_t blocks = layout_.blocks_for(inodes_[i].size_bytes);
    if (blocks == 0) continue;
    const Status st = disk_free_.reserve(inodes_[i].first_block, blocks);
    if (!st.ok()) {
      // Should be impossible after the overlap pass.
      return Error(ErrorCode::corrupt, "free-list reconstruction failed");
    }
  }
  return Status::success();
}

Result<std::uint32_t> BulletServer::verify(const Capability& cap,
                                           std::uint8_t required) const {
  if (cap.port != public_port_) {
    return Error(ErrorCode::bad_capability, "wrong server port");
  }
  std::uint64_t random = 0;
  if (cap.object == 0) {
    random = super_random_;
  } else {
    // An absent object that the installed placement map assigns to another
    // shard is a routing miss, not a dangling capability: answer
    // `wrong_shard` so the client refetches the map and retries there. An
    // object this server holds is served below regardless of the map —
    // that keeps old-owner reads valid while a rebalance copies files.
    if (cap.object >= inodes_.size()) {
      if (sharded_ && ring_.owner_of(cap.object) != shard_id_) {
        wrong_shard_replies_.fetch_add(1, std::memory_order_relaxed);
        return Error(ErrorCode::wrong_shard, "object placed on another shard");
      }
      return Error(ErrorCode::no_such_object, "object out of range");
    }
    const Inode& inode = inodes_[cap.object];
    if (inode.is_free()) {
      if (sharded_ && ring_.owner_of(cap.object) != shard_id_) {
        wrong_shard_replies_.fetch_add(1, std::memory_order_relaxed);
        return Error(ErrorCode::wrong_shard, "object placed on another shard");
      }
      return Error(ErrorCode::no_such_object, "object not in use");
    }
    random = inode.random;
  }
  if (!sealer_.verify(cap.rights, random, cap.check)) {
    return Error(ErrorCode::bad_capability, "check field invalid");
  }
  if (!cap.has_rights(required)) {
    return Error(ErrorCode::permission, "insufficient rights");
  }
  return cap.object;
}

Result<std::uint32_t> BulletServer::pick_free_slot_locked() const {
  if (free_inodes_.empty()) {
    return Error(ErrorCode::no_space, "inode table full");
  }
  if (!sharded_) return free_inodes_.back();
  // Scan from the allocation-direction end for the first slot the ring
  // assigns to this shard. Expected O(shard count) probes: roughly one slot
  // in N belongs to us.
  for (auto it = free_inodes_.rbegin(); it != free_inodes_.rend(); ++it) {
    if (ring_.owner_of(*it) == shard_id_) return *it;
  }
  return Error(ErrorCode::no_space, "no free inode slot owned by this shard");
}

void BulletServer::unlink_free_slot_locked(std::uint32_t index) {
  if (!free_inodes_.empty() && free_inodes_.back() == index) {
    free_inodes_.pop_back();
    return;
  }
  const auto it = std::find(free_inodes_.begin(), free_inodes_.end(), index);
  assert(it != free_inodes_.end());
  free_inodes_.erase(it);
}

Status BulletServer::install_placement(std::uint32_t shard_id,
                                       cluster::PlacementMap map) {
  if (!map.has_shard(shard_id)) {
    return Error(ErrorCode::bad_argument,
                 "installing shard is not in the placement map");
  }
  const auto lock = lock_exclusive();
  if (sharded_) {
    if (map.epoch < placement_.epoch) {
      return Error(ErrorCode::conflict, "placement epoch regression");
    }
    if (map.epoch == placement_.epoch) {
      if (shard_id != shard_id_) {
        return Error(ErrorCode::conflict,
                     "same epoch, different shard identity");
      }
      return Status::success();  // idempotent re-install
    }
  }
  ring_ = map.ring();
  placement_ = std::move(map);
  shard_id_ = shard_id;
  sharded_ = true;
  shard_map_installs_.fetch_add(1, std::memory_order_relaxed);
  return Status::success();
}

cluster::PlacementMap BulletServer::placement() const {
  const auto lock = lock_shared();
  return placement_;
}

std::uint32_t BulletServer::shard_id() const {
  const auto lock = lock_shared();
  return shard_id_;
}

Capability BulletServer::super_capability(std::uint8_t rights) const {
  return mint(0, super_random_, rights);
}

Capability BulletServer::mint(std::uint32_t object, std::uint64_t random,
                              std::uint8_t rights) const {
  Capability cap;
  cap.port = public_port_;
  cap.object = object;
  cap.rights = rights;
  cap.check = sealer_.seal(rights, random);
  return cap;
}

Result<Capability> BulletServer::create(ByteSpan data, int pfactor) {
  return await<Result<Capability>>([&](auto done) {
    create_async(data, pfactor, [done](Result<Capability> cap, ByteSpan) {
      done(std::move(cap));
    });
  });
}

Result<ByteSpan> BulletServer::read(const Capability& cap) {
  return cache_view(cap, read_pinned(cap));
}

Result<BulletServer::PinnedFile> BulletServer::read_pinned(
    const Capability& cap) {
  return await<Result<PinnedFile>>(
      [&](auto done) { read_pinned_async(cap, done); });
}

Result<ByteSpan> BulletServer::cache_view(const Capability& cap,
                                          Result<PinnedFile> file) const {
  if (!file.ok()) return file.error();
  const ByteSpan data = file.value().data;
  if (data.empty()) return data;
  // The pin drops with `file`; the bytes stay put until a later operation
  // evicts or erases the entry. Only a cache-backed read has such a view:
  // one served from a private buffer (arena pinned full) dies right here.
  const auto lock = lock_shared();
  const RnodeIndex rnode = inodes_[cap.object].cache_index;
  if (rnode != 0 && cache_.contains(rnode)) {
    const ByteSpan cached = cache_.data(rnode);
    const auto at = reinterpret_cast<std::uintptr_t>(data.data());
    const auto base = reinterpret_cast<std::uintptr_t>(cached.data());
    if (at >= base && at + data.size() <= base + cached.size()) return data;
  }
  return Error(ErrorCode::no_space, "cache arena fully pinned");
}

void BulletServer::read_pinned_async(const Capability& cap, ReadCallback done) {
  if (auto hit = read_hit(cap)) {
    done(std::move(*hit));
    return;
  }
  read_miss_async(cap, std::move(done));
}

std::optional<Result<BulletServer::PinnedFile>> BulletServer::read_hit(
    const Capability& cap) {
  // Shared lock only: capability check against the inode table, then one
  // cache lookup that touches LRU and pins in a single acquisition.
  // Immutability does the rest — nothing to copy, nothing to coordinate
  // with other readers.
  const auto lock = lock_shared();
  const Result<std::uint32_t> verified = verify(cap, rights::kRead);
  if (!verified.ok()) return Result<PinnedFile>(verified.error());
  if (verified.value() == 0) {
    return Result<PinnedFile>(
        Error(ErrorCode::bad_argument, "server object holds no data"));
  }
  const std::uint32_t index = verified.value();
  const RnodeIndex hint = inodes_[index].cache_index;
  if (hint == 0) return std::nullopt;
  obs::ScopedSpan cache_span(obs::Stage::kCache);
  const std::optional<ByteSpan> span = cache_.touch_and_pin(hint, index);
  if (!span.has_value()) return std::nullopt;
  ++cache_hits_;
  ++reads_;
  bytes_served_ += span->size();
  return Result<PinnedFile>(PinnedFile{*span, make_retainer(hint)});
}

void BulletServer::read_miss_async(const Capability& cap, ReadCallback done) {
  // Miss: register (or join) a fill under the exclusive lock, submit the
  // device read, and return — the handler thread is free the moment
  // submit_read() enqueues. complete_read_fill() finishes on a queue
  // thread (or inline, when io_threads == 0).
  auto lock = lock_exclusive();
  const Result<std::uint32_t> verified = verify(cap, rights::kRead);
  if (!verified.ok()) {
    lock.unlock();
    done(verified.error());
    return;
  }
  const std::uint32_t index = verified.value();
  if (index == 0) {
    lock.unlock();
    done(Error(ErrorCode::bad_argument, "server object holds no data"));
    return;
  }
  Inode& inode = inodes_[index];
  // Re-probe under the exclusive lock: a racing fill may have published
  // the entry between the two acquisitions.
  if (inode.cache_index != 0 && cache_.contains(inode.cache_index) &&
      cache_.inode_of(inode.cache_index) == index) {
    const RnodeIndex rnode = inode.cache_index;
    cache_.touch(rnode);
    cache_.pin(rnode);
    ++cache_hits_;
    ++reads_;
    bytes_served_ += inode.size_bytes;
    PinnedFile hit{cache_.data(rnode), make_retainer(rnode)};
    lock.unlock();
    done(std::move(hit));
    return;
  }
  ++cache_misses_;
  if (const auto it = fills_.find(index); it != fills_.end()) {
    // A fill (or a create's write-through) is already in flight for this
    // file: join it rather than issuing a duplicate device read. The
    // request's trace detaches here and reattaches at delivery. Joining is
    // always admitted — it adds no disk work.
    it->second.waiters.push_back(
        {obs::RequestTrace::suspend(), std::move(done)});
    return;
  }
  // Admission: a new fill means a new device read; at the bound, shed now
  // — before any cache allocation or queue submission — so overload costs
  // O(1) and the disk path stays clear for admitted work. The transport
  // turns retry_later into BS_PUSHBACK (or a silent drop for clients that
  // cannot parse it).
  if (config_.max_inflight_fills > 0 &&
      fills_.size() >= config_.max_inflight_fills) {
    ++inflight_sheds_;
    lock.unlock();
    done(Error(ErrorCode::retry_later, "disk fill bound reached"));
    return;
  }
  const std::uint64_t blocks = layout_.blocks_for(inode.size_bytes);
  if (blocks == 0) {
    // Empty file: nothing to read; serve an empty span, no pin needed.
    ++reads_;
    lock.unlock();
    done(PinnedFile{ByteSpan(), nullptr});
    return;
  }
  std::vector<std::uint32_t> evicted;
  auto rnode_result = cache_.insert(index, inode.size_bytes, &evicted);
  drop_evicted(evicted);
  RnodeIndex rnode = 0;
  std::shared_ptr<Bytes> heap;
  MutableByteSpan dst;
  if (rnode_result.ok()) {
    rnode = rnode_result.value();
    // Pin before the lock drops: an unfilled entry must stay valid and
    // immobile while the device writes into its arena bytes. The inode's
    // cache_index stays unset until completion, so no probe can hit the
    // half-filled entry.
    cache_.pin(rnode);
    dst = cache_.mutable_padded_data(rnode);
  } else if (rnode_result.code() == ErrorCode::no_space) {
    // Concurrent readers can pin the entire arena; this read must still be
    // served. Load into a private heap buffer the waiters' retainers own —
    // the reply borrows from it exactly as it would from the cache.
    heap = std::make_shared<Bytes>(blocks * layout_.block_size());
    dst = MutableByteSpan(*heap);
  } else {
    lock.unlock();
    done(rnode_result.error());
    return;
  }
  Fill fill;
  fill.rnode = rnode;
  fill.random = inode.random;
  fill.first_block = inode.first_block;
  fill.blocks = blocks;
  fill.waiters.push_back({obs::RequestTrace::suspend(), std::move(done)});
  fills_.emplace(index, std::move(fill));
  const std::uint64_t first_block = inode.first_block;
  lock.unlock();
  io_.submit_read(first_block, dst,
                  [this, index, heap](Status st, const DiskOpTiming& timing) {
                    complete_read_fill(index, st, timing, heap);
                  });
}

void BulletServer::read_range_pinned_async(const Capability& cap,
                                           std::uint32_t offset,
                                           std::uint32_t length,
                                           ReadCallback done) {
  read_pinned_async(
      cap, [this, offset, length,
            done = std::move(done)](Result<PinnedFile> whole) mutable {
        if (!whole.ok()) {
          done(std::move(whole));
          return;
        }
        PinnedFile file = std::move(whole).value();
        if (offset > file.data.size() || length > file.data.size() - offset) {
          uncount_read(file.data);  // nothing was served
          done(Error(ErrorCode::bad_argument, "range beyond end of file"));
          return;
        }
        // The whole-file read over-counted; correct to the range served.
        bytes_served_ -= file.data.size() - length;
        file.data = file.data.subspan(offset, length);
        done(std::move(file));
      });
}

void BulletServer::uncount_read(ByteSpan data) {
  --reads_;
  bytes_served_ -= data.size();
}

void BulletServer::complete_read_fill(std::uint32_t index, Status st,
                                      const DiskOpTiming& timing,
                                      std::shared_ptr<Bytes> heap) {
  disk_read_latency_ns_.record(timing.end_ns - timing.start_ns);
  std::vector<std::pair<obs::RequestTrace*, ReadCallback>> waiters;
  std::vector<Result<PinnedFile>> results;
  {
    auto lock = lock_exclusive();
    const auto it = fills_.find(index);
    assert(it != fills_.end());
    Fill fill = std::move(it->second);
    fills_.erase(it);
    waiters = std::move(fill.waiters);

    if (!st.ok() || fill.erased) {
      if (fill.rnode != 0) {
        cache_.unpin(fill.rnode);
        cache_.remove(fill.rnode);
      }
      Error error = fill.erased ? Error(ErrorCode::no_such_object,
                                        "file deleted during read")
                                : st.error();
      if (fill.erased) {
        // The deferred half of erase(): the extent and inode slot were
        // kept off the free lists while the read was in flight.
        if (fill.blocks > 0) {
          const Status rel = disk_free_.release(fill.first_block, fill.blocks);
          assert(rel.ok());
          (void)rel;
        }
        release_slot_locked(index);
      }
      results.assign(waiters.size(), Result<PinnedFile>(error));
    } else {
      Inode& inode = inodes_[index];
      // Compaction treats filling files as immobile and erase defers, so
      // the identity recorded at submit must still hold.
      assert(inode.random == fill.random &&
             inode.first_block == fill.first_block);
      if (heap == nullptr) {
        // Publish: the entry becomes the file's cached image. One pin per
        // waiter, then drop the fill's own.
        inode.cache_index = fill.rnode;
        cache_.touch(fill.rnode);
        for (std::size_t i = 0; i < waiters.size(); ++i) {
          cache_.pin(fill.rnode);
          results.push_back(
              PinnedFile{cache_.data(fill.rnode), make_retainer(fill.rnode)});
        }
        cache_.unpin(fill.rnode);
      } else {
        ++scratch_allocs_;
        bytes_copied_ += inode.size_bytes;
        const ByteSpan span = ByteSpan(*heap).first(inode.size_bytes);
        for (std::size_t i = 0; i < waiters.size(); ++i) {
          results.push_back(
              PinnedFile{span, std::shared_ptr<const void>(heap, heap->data())});
        }
      }
      reads_ += waiters.size();
      bytes_served_ += waiters.size() * inode.size_bytes;
    }
  }
  // Deliver outside the lock. Each waiter's trace reattaches on this
  // thread, so its reply-side spans (encode, tx) land on the right
  // timeline, prefixed by the queue wait and — for the initiating request
  // — the device read itself.
  bool initiator = true;
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    obs::RequestTrace::resume(waiters[i].first);
    if (auto* trace = obs::RequestTrace::current()) {
      trace->add_span(obs::Stage::kDiskQueue, timing.submit_ns,
                      timing.start_ns - timing.submit_ns);
      if (initiator) {
        trace->add_span(obs::Stage::kDiskRead, timing.start_ns,
                        timing.end_ns - timing.start_ns);
      }
    }
    initiator = false;
    waiters[i].second(std::move(results[i]));
  }
}

std::vector<std::function<void()>> BulletServer::release_fill_locked(
    std::uint32_t index, ByteSpan image,
    std::shared_ptr<const void> image_owner) {
  std::vector<std::function<void()>> deliveries;
  const auto it = fills_.find(index);
  if (it == fills_.end()) return deliveries;
  Fill fill = std::move(it->second);
  fills_.erase(it);

  if (fill.erased) {
    // erase() arrived while the replica writes were in flight.
    if (fill.rnode != 0) {
      cache_.unpin(fill.rnode);
      cache_.remove(fill.rnode);
    }
    if (fill.blocks > 0) {
      const Status rel = disk_free_.release(fill.first_block, fill.blocks);
      assert(rel.ok());
      (void)rel;
    }
    release_slot_locked(index);
    for (auto& [trace, cb] : fill.waiters) {
      deliveries.push_back([trace, cb = std::move(cb)]() mutable {
        obs::RequestTrace::resume(trace);
        cb(Error(ErrorCode::no_such_object, "file deleted during create"));
      });
    }
    return deliveries;
  }

  // Read waiters that joined while the create's writes were in flight get
  // the create's own image: the arena entry, pinned per waiter, or for a
  // cache-bypass create its staging buffer, which `image_owner` keeps
  // alive.
  for (auto& [trace, cb] : fill.waiters) {
    PinnedFile file{image, image_owner};
    if (fill.rnode != 0) {
      cache_.pin(fill.rnode);
      file.retainer = make_retainer(fill.rnode);
    }
    ++reads_;
    bytes_served_ += image.size();
    deliveries.push_back([trace, cb = std::move(cb), file]() mutable {
      obs::RequestTrace::resume(trace);
      cb(std::move(file));
    });
  }
  if (fill.rnode != 0) cache_.unpin(fill.rnode);
  return deliveries;
}


// create_async's continuation state: everything the queued writes and their
// completions need once the request itself is gone.
struct BulletServer::CreateCtx {
  Bytes bypass;     // padded image when the arena had no room
  ByteSpan stored;  // the padded image the writes read: arena or bypass
  std::uint32_t index = 0;
  std::uint64_t random = 0;  // the capability's seal, fixed at phase 1
  RnodeIndex rnode = 0;
  std::uint64_t first_block = 0;
  std::uint64_t blocks = 0;
  std::uint32_t size = 0;
  int pfactor = 0;
  int written = 0;
  bool install = false;
  obs::RequestTrace* trace = nullptr;
  CreateCallback done;
};

void BulletServer::create_async(ByteSpan data, int pfactor,
                                CreateCallback done, std::uint32_t slot,
                                std::uint64_t random) {
  // Phase 1, synchronously under one exclusive hold: allocate, ingest into
  // the cache, set the RAM inode. The disk writes then run on the queue.
  auto lock = lock_exclusive();
  const auto fail = [&](Error error) {
    lock.unlock();
    done(std::move(error), ByteSpan());
  };
  if (pfactor < 0 || pfactor > disk_->replica_count()) {
    return fail(Error(ErrorCode::bad_argument, "pfactor exceeds replica count"));
  }
  if (data.size() > std::numeric_limits<std::uint32_t>::max()) {
    return fail(Error(ErrorCode::too_large, "file exceeds 4 GB"));
  }
  const auto size = static_cast<std::uint32_t>(data.size());
  std::uint32_t index = slot;
  if (slot != 0) {
    // Replication install: the peer already assigned slot and random.
    random &= kMask48;
    if (slot >= inodes_.size()) {
      return fail(Error(ErrorCode::bad_argument, "install slot out of range"));
    }
    if (!inodes_[slot].is_free() && inodes_[slot].random == random) {
      // Already applied (retransmit / resync overlap).
      lock.unlock();
      done(mint(slot, random), data);
      return;
    }
    if (!inodes_[slot].is_free() ||
        std::find(free_inodes_.begin(), free_inodes_.end(), slot) ==
            free_inodes_.end()) {
      // Occupied, or zeroed with cleanup deferred behind an async fill —
      // either way the slot is not installable right now.
      return fail(Error(ErrorCode::conflict, "install slot occupied"));
    }
  } else {
    const auto picked = pick_free_slot_locked();
    if (!picked.ok()) return fail(picked.error());
    // Same admission bound as the read-miss path: a create registers a
    // fill whose queued writes occupy the disk pipeline, so at the bound
    // it is shed before allocating anything.
    if (config_.max_inflight_fills > 0 &&
        fills_.size() >= config_.max_inflight_fills) {
      ++inflight_sheds_;
      return fail(Error(ErrorCode::retry_later, "disk fill bound reached"));
    }
    index = picked.value();
  }
  // Disk extent, first fit; compaction is the fallback when the space
  // exists but no hole is large enough.
  const std::uint64_t blocks = layout_.blocks_for(size);
  std::uint64_t first_block = layout_.data_start_block();
  if (blocks > 0) {
    std::optional<std::uint64_t> got = disk_free_.allocate(blocks);
    if (!got.has_value() && disk_free_.total_free() >= blocks) {
      const auto moved = compact_disk_locked();
      if (!moved.ok()) return fail(moved.error());
      got = disk_free_.allocate(blocks);
    }
    if (!got.has_value()) return fail(Error(ErrorCode::no_space, "disk full"));
    first_block = *got;
  }
  // Cache space ("creating files is much the same as reading files that
  // were not in the cache").
  auto ctx = std::make_shared<CreateCtx>();
  std::vector<std::uint32_t> evicted;
  auto rnode_result = cache_.insert(index, size, &evicted);
  drop_evicted(evicted);
  RnodeIndex rnode = 0;
  if (rnode_result.ok()) {
    rnode = rnode_result.value();
    if (size > 0) {
      std::memcpy(cache_.mutable_data(rnode).data(), data.data(), size);
    }
    // The device reads straight from the arena while the lock is down; the
    // pin keeps those bytes valid and immobile until the writes land.
    cache_.pin(rnode);
    ctx->stored = cache_.padded_data(rnode);
  } else if (rnode_result.code() == ErrorCode::no_space) {
    // Concurrent readers can pin the entire arena; creating must keep
    // working. Stage the padded image in a scratch buffer, write it from
    // there, and leave the file uncached (cache_index 0).
    ctx->bypass.resize(blocks * layout_.block_size());
    if (size > 0) std::memcpy(ctx->bypass.data(), data.data(), size);
    ++scratch_allocs_;
    bytes_copied_ += size;
    ctx->stored = ctx->bypass;
  } else {
    if (blocks > 0) {
      const Status rel = disk_free_.release(first_block, blocks);
      assert(rel.ok());
      (void)rel;
    }
    return fail(rnode_result.error());
  }
  unlink_free_slot_locked(index);

  // The RAM inode. The file counts as live from here: an install's erase
  // can arrive before its writes complete.
  Inode& inode = inodes_[index];
  inode.random = slot != 0 ? random : (rng_.next() & kMask48);
  if (inode.random == 0) inode.random = 1;
  inode.cache_index = rnode;
  inode.first_block = static_cast<std::uint32_t>(first_block);
  inode.size_bytes = size;
  ++live_files_;

  ctx->index = index;
  ctx->random = inode.random;
  ctx->rnode = rnode;
  ctx->first_block = first_block;
  ctx->blocks = blocks;
  ctx->size = size;
  ctx->pfactor = pfactor;
  ctx->install = slot != 0;
  ctx->done = std::move(done);

  // The fill keeps the file immobile to compaction, lets reads that miss
  // join it, and defers any erase() cleanup until the queued writes are
  // done with its blocks.
  Fill fill;
  fill.rnode = rnode;
  fill.random = inode.random;
  fill.first_block = first_block;
  fill.blocks = blocks;
  fills_.emplace(index, std::move(fill));

  if (pfactor == 0) {
    // "0 = as soon as it is in the RAM cache": ack now, replicate behind.
    const Capability cap = commit_create_locked(*ctx);
    lock.unlock();
    ctx->done(cap, ctx->stored.first(size));
    write_behind(std::move(ctx));
    return;
  }

  // P-FACTOR > 0: the ack waits on the queue for `pfactor` data replicas;
  // the inode write and the capability seal happen in the completion.
  ctx->trace = obs::RequestTrace::suspend();
  lock.unlock();
  io_.submit_job(
      [this, ctx]() -> Status {
        if (ctx->blocks == 0) {
          ctx->written = ctx->pfactor;
          return Status::success();
        }
        const Result<int> w =
            write_file_data(ctx->first_block, ctx->stored, ctx->pfactor);
        if (!w.ok()) return w.error();
        ctx->written = w.value();
        return Status::success();
      },
      [this, ctx](Status st, const DiskOpTiming& timing) {
        auto lock = lock_exclusive();
        const Result<int> inode_written =
            st.ok() ? write_inode_block(ctx->index, ctx->pfactor)
                    : Result<int>(st.error());
        const int written = st.ok() && inode_written.ok()
                                ? std::min(ctx->written, inode_written.value())
                                : 0;
        Result<Capability> cap = ErrorCode::io_error;
        std::vector<std::pair<obs::RequestTrace*, ReadCallback>> waiters;
        if (written < ctx->pfactor) {
          // "If the P-FACTOR is N, the file will be stored on N disks
          // before the client can resume" — anything less means the create
          // failed. Undo so the inode table stays consistent (a zeroed
          // inode is written back to whatever replicas remain). Only an
          // install's capability can be known before this point (the peer
          // issued it), so only an install can have drawn joined reads or
          // an erase, which already took its file off the live count.
          auto fill = fills_.extract(ctx->index);
          waiters = std::move(fill.mapped().waiters);
          if (!fill.mapped().erased) --live_files_;
          if (ctx->rnode != 0) {
            cache_.unpin(ctx->rnode);
            cache_.remove(ctx->rnode);
          }
          inodes_[ctx->index] = Inode{};
          (void)write_inode_block(ctx->index, disk_->replica_count());
          release_slot_locked(ctx->index);
          if (ctx->blocks > 0) {
            const Status rel =
                disk_free_.release(ctx->first_block, ctx->blocks);
            assert(rel.ok());
            (void)rel;
          }
          cap = !st.ok() ? st.error()
                : !inode_written.ok()
                    ? inode_written.error()
                    : Error(ErrorCode::io_error,
                            "only " + std::to_string(written) + " of " +
                                std::to_string(ctx->pfactor) +
                                " replicas written");
        } else {
          ctx->written = written;
          cap = commit_create_locked(*ctx);
        }
        lock.unlock();
        for (auto& [trace, cb] : waiters) {
          obs::RequestTrace::resume(trace);
          cb(cap.error());
        }
        obs::RequestTrace::resume(ctx->trace);
        if (auto* trace = obs::RequestTrace::current()) {
          trace->add_span(obs::Stage::kDiskQueue, timing.submit_ns,
                          timing.start_ns - timing.submit_ns);
          trace->add_span(obs::Stage::kDiskWrite, timing.start_ns,
                          timing.end_ns - timing.start_ns);
        }
        if (!cap.ok()) {
          ctx->done(std::move(cap), ByteSpan());
          return;
        }
        ctx->done(std::move(cap), ctx->stored.first(ctx->size));
        write_behind(ctx);
      });
}

Capability BulletServer::commit_create_locked(const CreateCtx& ctx) {
  ++creates_;
  bytes_stored_ += ctx.size;
  if (ctx.install) ++repl_installs_;
  return mint(ctx.index, ctx.random);
}

void BulletServer::write_behind(std::shared_ptr<CreateCtx> ctx) {
  io_.submit_job(
      [this, ctx]() -> Status {
        if (ctx->blocks == 0) return Status::success();
        sim::BackgroundSection bg(config_.clock);
        return disk_->write_remaining(ctx->first_block, ctx->stored,
                                      ctx->written);
      },
      [this, ctx](Status data_st, const DiskOpTiming&) {
        auto lock = lock_exclusive();
        // The inode block goes out freshly serialized under the state lock,
        // like every inode-table write: an image taken earlier could land
        // after a newer write of the same block (a neighbour's delete or
        // compaction flip) and roll it back on these replicas.
        const std::uint64_t device_block =
            layout_.inode_device_block(ctx->index);
        Status inode_st;
        {
          sim::BackgroundSection bg(config_.clock);
          inode_st = disk_->write_remaining(
              device_block, serialize_inode_block(device_block), ctx->written);
        }
        if (!data_st.ok() || !inode_st.ok()) {
          BULLET_LOG(warn, kLog) << "background replication incomplete";
        }
        auto deliveries =
            release_fill_locked(ctx->index, ctx->stored.first(ctx->size), ctx);
        lock.unlock();
        for (auto& deliver : deliveries) deliver();
      });
}
void BulletServer::compact_disk_async(CompactCallback done) {
  if (io_.threads() == 0) {
    // Inline queue: stepping through submit_job would recurse; the
    // synchronous loop has identical semantics.
    done(compact_disk());
    return;
  }
  // Run one bounded step per queue job, resubmitting until the pass
  // completes; traffic interleaves between steps.
  struct Stepper {
    CompactCallback done;
    obs::RequestTrace* trace = nullptr;
    Result<CompactProgress> last{CompactProgress{}};
    std::function<void()> submit;
  };
  auto stepper = std::make_shared<Stepper>();
  stepper->done = std::move(done);
  stepper->trace = obs::RequestTrace::suspend();
  stepper->submit = [this, stepper]() {
    io_.submit_job(
        [this, stepper]() -> Status {
          stepper->last = compact_step(kCompactStepBlocks);
          return Status::success();
        },
        [stepper](Status, const DiskOpTiming&) {
          if (stepper->last.ok() && !stepper->last.value().done) {
            stepper->submit();
            return;
          }
          obs::RequestTrace::resume(stepper->trace);
          CompactCallback finish = std::move(stepper->done);
          Result<std::uint64_t> result =
              stepper->last.ok()
                  ? Result<std::uint64_t>(stepper->last.value().moved_blocks)
                  : Result<std::uint64_t>(stepper->last.error());
          stepper->submit = nullptr;  // break the self-reference cycle
          finish(std::move(result));
        });
  };
  stepper->submit();
}

Result<std::uint32_t> BulletServer::size(const Capability& cap) {
  const auto lock = lock_shared();
  BULLET_ASSIGN_OR_RETURN(const std::uint32_t index, verify(cap, rights::kRead));
  if (index == 0) {
    return Error(ErrorCode::bad_argument, "server object holds no data");
  }
  return inodes_[index].size_bytes;
}

Status BulletServer::erase(const Capability& cap) {
  const auto lock = lock_exclusive();
  BULLET_ASSIGN_OR_RETURN(const std::uint32_t index, verify(cap, rights::kDelete));
  if (index == 0) {
    return Error(ErrorCode::bad_argument, "cannot delete the server object");
  }
  return erase_index_locked(index);
}

Status BulletServer::erase_index_locked(std::uint32_t index) {
  Inode& inode = inodes_[index];
  const std::uint64_t blocks = layout_.blocks_for(inode.size_bytes);
  const std::uint64_t first_block = inode.first_block;

  // "Deleting a file involves checking the capability, freeing an inode by
  //  zeroing it and writing it back to the disk."
  const auto fill = fills_.find(index);
  if (fill != fills_.end()) {
    // An async disk op is mid-flight on this file's extent. The delete
    // takes effect now (zeroed inode, no new capability verifies), but the
    // blocks, the inode slot, and the cache entry stay off the free lists
    // until the fill completes — the same deferral a pinned cache entry
    // gets on remove.
    fill->second.erased = true;
    inode = Inode{};
  } else {
    if (inode.cache_index != 0) {
      cache_.remove(inode.cache_index);
    }
    inode = Inode{};
  }
  const Result<int> written = write_inode_block(index, disk_->replica_count());
  if (fill == fills_.end()) {
    if (blocks > 0) {
      const Status st = disk_free_.release(first_block, blocks);
      assert(st.ok());
      (void)st;
    }
    release_slot_locked(index);
  }
  --live_files_;
  ++deletes_;
  if (!written.ok()) {
    // The RAM state is already updated, but no replica holds the zeroed
    // inode: the delete would silently resurrect on reboot, so do not ack.
    BULLET_LOG(warn, kLog) << "delete: inode write-back failed: "
                           << written.error().to_string();
    return Error(ErrorCode::io_error, "delete not durable on any replica");
  }
  return Status::success();
}

Result<Capability> BulletServer::create_from(
    const Capability& source, std::span<const wire::FileEdit> edits,
    int pfactor) {
  return await<Result<Capability>>([&](auto done) {
    create_from_async(source, {edits.begin(), edits.end()}, pfactor,
                      [done](Result<Capability> cap, ByteSpan) {
                        done(std::move(cap));
                      });
  });
}

void BulletServer::create_from_async(const Capability& source,
                                     std::vector<wire::FileEdit> edits,
                                     int pfactor, CreateCallback done) {
  read_pinned_async(source, [this, edits = std::move(edits), pfactor,
                             done = std::move(done)](
                                Result<PinnedFile> file) mutable {
    if (file.ok()) uncount_read(file.value().data);  // not a client read
    Result<Bytes> updated =
        file.ok() ? wire::apply_edits(file.value().data, edits)
                  : Result<Bytes>(file.error());
    if (!updated.ok()) {
      done(updated.error(), ByteSpan());
      return;
    }
    // Edit application stages the new version in a scratch buffer before
    // the create ingests it; account the cost (the plain create path stays
    // at zero staged bytes).
    ++scratch_allocs_;
    bytes_copied_ += updated.value().size();
    create_async(updated.value(), pfactor, std::move(done));
  });
}

Result<ByteSpan> BulletServer::read_range(const Capability& cap,
                                          std::uint32_t offset,
                                          std::uint32_t length) {
  return cache_view(cap, await<Result<PinnedFile>>([&](auto done) {
                      read_range_pinned_async(cap, offset, length, done);
                    }));
}
Result<int> BulletServer::write_file_data(std::uint64_t first_block,
                                          ByteSpan data, int max_replicas) {
  if (data.empty()) return max_replicas;
  assert(data.size() % layout_.block_size() == 0);
  const std::uint64_t t0 = obs::now_ns();
  auto written = disk_->write_partial(first_block, data, max_replicas);
  const std::uint64_t dur = obs::now_ns() - t0;
  disk_write_latency_ns_.record(dur);
  if (auto* trace = obs::RequestTrace::current()) {
    trace->add_span(obs::Stage::kDiskWrite, t0, dur);
  }
  return written;
}

Bytes BulletServer::serialize_inode_block(std::uint64_t device_block) const {
  const std::uint64_t bs = layout_.block_size();
  Bytes block(bs, 0);
  const std::uint64_t per_block = bs / Inode::kDiskSize;
  const std::uint64_t first_slot = device_block * per_block;
  for (std::uint64_t s = 0; s < per_block; ++s) {
    const std::uint64_t slot = first_slot + s;
    MutableByteSpan out(block.data() + s * Inode::kDiskSize, Inode::kDiskSize);
    if (slot == 0) {
      layout_.descriptor().encode(out);
    } else if (slot < inodes_.size()) {
      // "The index has no significance on disk": persist it as zero.
      Inode persisted = inodes_[slot];
      persisted.cache_index = 0;
      persisted.encode(out);
    }
  }
  return block;
}

Result<int> BulletServer::write_inode_block(std::uint32_t index,
                                            int max_replicas) {
  const std::uint64_t device_block = layout_.inode_device_block(index);
  const std::uint64_t t0 = obs::now_ns();
  auto written = disk_->write_partial(
      device_block, serialize_inode_block(device_block), max_replicas);
  const std::uint64_t dur = obs::now_ns() - t0;
  disk_write_latency_ns_.record(dur);
  if (auto* trace = obs::RequestTrace::current()) {
    trace->add_span(obs::Stage::kDiskWrite, t0, dur);
  }
  return written;
}

void BulletServer::clear_cache_index(std::uint32_t inode_index) {
  if (inode_index < inodes_.size()) {
    inodes_[inode_index].cache_index = 0;
  }
}

void BulletServer::drop_evicted(const std::vector<std::uint32_t>& evicted) {
  for (const std::uint32_t index : evicted) clear_cache_index(index);
}

Result<std::uint64_t> BulletServer::compact_disk() {
  // Slide every live file toward the start of the data region, in block
  // order ("disk fragmentation can be relieved by compaction every morning
  // at say 3 am when the system is lightly loaded") — but incrementally:
  // the exclusive lock is dropped and retaken between bounded steps, so
  // readers and creates interleave with a compaction in progress instead
  // of stalling behind a whole-disk slide.
  for (;;) {
    const auto lock = lock_exclusive();
    BULLET_ASSIGN_OR_RETURN(const CompactProgress p,
                            compact_step_locked(kCompactStepBlocks));
    if (p.done) return p.moved_blocks;
  }
}

Result<std::uint64_t> BulletServer::compact_disk_locked() {
  // Create's fragmentation fallback: the caller already holds the lock and
  // needs the space now, so the incremental machine runs to completion
  // without yielding.
  for (;;) {
    BULLET_ASSIGN_OR_RETURN(const CompactProgress p,
                            compact_step_locked(kCompactStepBlocks));
    if (p.done) return p.moved_blocks;
  }
}

Result<BulletServer::CompactProgress> BulletServer::compact_step(
    std::uint64_t max_blocks) {
  const auto lock = lock_exclusive();
  return compact_step_locked(max_blocks);
}

void BulletServer::compact_abandon_move_locked() {
  for (const auto& [first, blocks] : compact_.held) {
    const Status st = disk_free_.release(first, blocks);
    assert(st.ok());
    (void)st;
  }
  compact_.held.clear();
  compact_.moving = false;
  compact_.staging = 0;
}

Result<BulletServer::CompactProgress> BulletServer::compact_step_locked(
    std::uint64_t max_blocks) {
  // Crash-safety invariant, held at every step boundary: every block the
  // on-disk inode table points at is intact. Data always lands in blocks
  // reserved out of disk_free_ before the inode is flipped to it; when the
  // target overlaps the file's own extent, the file bounces through a
  // disjoint staging extent (two copies, two inode flips). Because the
  // reservations live in the real allocator, traffic interleaved between
  // steps can never allocate into a move's landing zone.
  const std::uint64_t t0 = obs::now_ns();
  if (max_blocks == 0) max_blocks = 1;
  const std::uint64_t bs = layout_.block_size();

  if (!compact_.active) {
    compact_ = CompactState{};
    compact_.active = true;
    compact_.cursor = layout_.data_start_block();
  }

  // Files move through one fixed-size reusable chunk, not a per-file
  // buffer sized to the whole file (a 1 GB file must not demand a 1 GB
  // bounce).
  constexpr std::uint64_t kCompactionChunkBytes = 256 << 10;
  const std::uint64_t chunk_blocks =
      std::max<std::uint64_t>(1, kCompactionChunkBytes / bs);
  if (compact_chunk_.empty()) {
    compact_chunk_.resize(chunk_blocks * bs);
    ++scratch_allocs_;
  }
  auto copy_blocks = [&](std::uint64_t src, std::uint64_t dst,
                         std::uint64_t offset, std::uint64_t n) -> Status {
    for (std::uint64_t done = 0; done < n; done += chunk_blocks) {
      const std::uint64_t m = std::min(chunk_blocks, n - done);
      const MutableByteSpan piece(compact_chunk_.data(), m * bs);
      BULLET_RETURN_IF_ERROR(disk_->read(src + offset + done, piece));
      BULLET_RETURN_IF_ERROR(disk_->write(dst + offset + done, piece));
      bytes_copied_ += piece.size();
    }
    return Status::success();
  };
  auto account = [&](Result<CompactProgress> r) {
    compact_steps_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t held_ns = obs::now_ns() - t0;
    std::uint64_t prev =
        compact_lock_hold_ns_max_.load(std::memory_order_relaxed);
    while (held_ns > prev && !compact_lock_hold_ns_max_.compare_exchange_weak(
                                 prev, held_ns, std::memory_order_relaxed)) {
    }
    return r;
  };

  if (!compact_.moving) {
    // Scan for the next entry at or above the cursor: the lowest-placed
    // live file, or an extent pinned under an in-flight erased fill.
    // Entries with async I/O in flight (fills_) are immobile obstacles,
    // exactly like pinned entries in FileCache::compact — the cursor
    // slides past them.
    for (;;) {
      std::uint64_t best_first = ~std::uint64_t{0};
      std::uint64_t best_blocks = 0;
      std::uint32_t best_inode = 0;
      bool movable = false;
      for (std::uint32_t i = 1; i < inodes_.size(); ++i) {
        if (inodes_[i].is_free()) continue;
        const std::uint64_t blocks = layout_.blocks_for(inodes_[i].size_bytes);
        if (blocks == 0 || inodes_[i].first_block < compact_.cursor) continue;
        if (inodes_[i].first_block < best_first) {
          best_first = inodes_[i].first_block;
          best_blocks = blocks;
          best_inode = i;
          movable = fills_.count(i) == 0;
        }
      }
      for (const auto& [index, fill] : fills_) {
        // An erased fill's extent is no longer in any inode but its blocks
        // are still in flight; it sits in place until the fill completes.
        if (!fill.erased || fill.blocks == 0) continue;
        if (fill.first_block < compact_.cursor) continue;
        if (fill.first_block < best_first) {
          best_first = fill.first_block;
          best_blocks = fill.blocks;
          best_inode = 0;
          movable = false;
        }
      }
      if (best_first == ~std::uint64_t{0}) {
        // Nothing above the cursor: the pass is complete.
        const CompactProgress p{compact_.moved_total, true};
        compact_.active = false;
        return account(p);
      }
      if (best_first == compact_.cursor || !movable) {
        compact_.cursor = best_first + best_blocks;
        continue;
      }
      // Begin a move. Reserve the landing zone first; if a concurrent
      // create squatted part of the gap since the last step, yield and let
      // the rescan see the new file.
      const std::uint64_t target = compact_.cursor;
      const std::uint64_t hole = best_first - target;
      if (target + best_blocks <= best_first) {
        if (!disk_free_.reserve(target, best_blocks).ok()) {
          return account(CompactProgress{compact_.moved_total, false});
        }
        compact_.held.push_back({target, best_blocks});
        compact_.hop = 0;
      } else {
        if (!disk_free_.reserve(target, hole).ok()) {
          return account(CompactProgress{compact_.moved_total, false});
        }
        compact_.held.push_back({target, hole});
        const auto staging = disk_free_.allocate(best_blocks);
        if (!staging.has_value()) {
          // No room to bounce; leave this file and pack beyond it.
          compact_abandon_move_locked();
          compact_.cursor = best_first + best_blocks;
          continue;
        }
        compact_.staging = *staging;
        compact_.held.push_back({*staging, best_blocks});
        compact_.hop = 1;
        compact_.hole = hole;
      }
      compact_.moving = true;
      compact_.inode = best_inode;
      compact_.random = inodes_[best_inode].random;
      compact_.src = best_first;
      compact_.target = target;
      compact_.blocks = best_blocks;
      compact_.copied = 0;
      break;
    }
  } else {
    // Identity check before touching a single block: between steps the
    // file may have been erased, or an async fill may have started on it.
    const std::uint64_t expected =
        compact_.hop == 2 ? compact_.staging : compact_.src;
    const bool intact = compact_.inode < inodes_.size() &&
                        !inodes_[compact_.inode].is_free() &&
                        inodes_[compact_.inode].random == compact_.random &&
                        inodes_[compact_.inode].first_block == expected &&
                        fills_.count(compact_.inode) == 0;
    if (!intact) {
      compact_abandon_move_locked();
      return account(CompactProgress{compact_.moved_total, false});
    }
  }

  // Copy at most max_blocks of the current hop.
  const std::uint64_t from =
      compact_.hop == 2 ? compact_.staging : compact_.src;
  const std::uint64_t to =
      compact_.hop == 1 ? compact_.staging : compact_.target;
  const std::uint64_t n =
      std::min(max_blocks, compact_.blocks - compact_.copied);
  const Status copied = copy_blocks(from, to, compact_.copied, n);
  if (!copied.ok()) {
    compact_abandon_move_locked();
    return account(Result<CompactProgress>(copied.error()));
  }
  compact_.copied += n;
  if (compact_.copied < compact_.blocks) {
    return account(CompactProgress{compact_.moved_total, false});
  }

  // Hop complete: flip the inode to the freshly written extent.
  Inode& inode = inodes_[compact_.inode];
  if (compact_.hop == 1) {
    // src -> staging done. Flip to staging; the old extent dies, except
    // that its leading (blocks - hole) blocks become the tail of the
    // landing zone, which stays reserved for hop 2.
    inode.first_block = static_cast<std::uint32_t>(compact_.staging);
    const Result<int> w = write_inode_block(compact_.inode,
                                            disk_->replica_count());
    const Status rel = disk_free_.release(compact_.src, compact_.blocks);
    const Status res =
        disk_free_.reserve(compact_.src, compact_.blocks - compact_.hole);
    assert(rel.ok() && res.ok());
    (void)rel;
    (void)res;
    // Staging is owned by the inode now; the whole landing zone is held.
    compact_.held.clear();
    compact_.held.push_back({compact_.target, compact_.blocks});
    compact_.hop = 2;
    compact_.copied = 0;
    if (!w.ok()) {
      compact_abandon_move_locked();
      return account(Result<CompactProgress>(w.error()));
    }
    return account(CompactProgress{compact_.moved_total, false});
  }
  // Final flip (disjoint move, or hop 2 of a bounce): the landing zone
  // becomes the file; the source extent (old location or staging) dies.
  const std::uint64_t dead =
      compact_.hop == 2 ? compact_.staging : compact_.src;
  inode.first_block = static_cast<std::uint32_t>(compact_.target);
  const Result<int> w =
      write_inode_block(compact_.inode, disk_->replica_count());
  compact_.held.clear();  // landing zone now owned by the inode
  const Status rel = disk_free_.release(dead, compact_.blocks);
  assert(rel.ok());
  (void)rel;
  compact_.moved_total += compact_.blocks;
  compact_.cursor = compact_.target + compact_.blocks;
  compact_.moving = false;
  compact_.staging = 0;
  if (!w.ok()) return account(Result<CompactProgress>(w.error()));
  return account(CompactProgress{compact_.moved_total, false});
}

wire::FsckReport BulletServer::check_consistency() const {
  const auto lock = lock_shared();
  wire::FsckReport report;
  report.inodes_scanned = inodes_.size() > 0 ? inodes_.size() - 1 : 0;
  struct Extent {
    std::uint64_t first;
    std::uint64_t blocks;
  };
  std::vector<Extent> extents;
  const std::uint64_t data_lo = layout_.data_start_block();
  const std::uint64_t data_hi = data_lo + layout_.data_blocks();
  for (std::uint32_t i = 1; i < inodes_.size(); ++i) {
    const Inode& inode = inodes_[i];
    if (inode.is_free()) continue;
    ++report.files;
    const std::uint64_t blocks = layout_.blocks_for(inode.size_bytes);
    if (blocks == 0) continue;
    if (inode.first_block < data_lo || inode.first_block + blocks > data_hi) {
      ++report.cleared_bad_bounds;
      continue;
    }
    extents.push_back({inode.first_block, blocks});
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.first < b.first; });
  std::uint64_t prev_end = 0;
  for (const Extent& e : extents) {
    if (e.first < prev_end) {
      ++report.cleared_overlaps;
    } else {
      prev_end = e.first + e.blocks;
    }
  }
  return report;
}

Result<Capability> BulletServer::restrict(const Capability& cap,
                                          std::uint8_t new_rights) {
  const auto lock = lock_shared();
  // Holding a valid capability is the precondition; no specific right is
  // needed to give away less than you have.
  BULLET_ASSIGN_OR_RETURN(const std::uint32_t index, verify(cap, 0));
  if ((new_rights & cap.rights) != new_rights) {
    return Error(ErrorCode::permission, "cannot add rights");
  }
  return mint(index, index == 0 ? super_random_ : inodes_[index].random,
              new_rights);
}

Status BulletServer::sync() {
  const auto lock = lock_exclusive();
  return disk_->flush();
}

std::vector<BulletServer::ObjectInfo> BulletServer::list_objects() const {
  const auto lock = lock_shared();
  std::vector<ObjectInfo> out;
  for (std::uint32_t i = 1; i < inodes_.size(); ++i) {
    const Inode& inode = inodes_[i];
    if (inode.is_free()) continue;
    out.push_back(ObjectInfo{i, inode.size_bytes, inode.first_block,
                             inode.cache_index != 0});
  }
  return out;
}

BulletServer::CounterSnapshot BulletServer::snapshot_counters() const noexcept {
  // One relaxed pass, front to back, into a plain struct. Workers keep
  // mutating concurrently, but every field is read exactly once here
  // instead of interleaved with the derived-stat computations below, so a
  // snapshot is as internally consistent as relaxed counters allow.
  CounterSnapshot c;
  c.creates = creates_.load(std::memory_order_relaxed);
  c.reads = reads_.load(std::memory_order_relaxed);
  c.deletes = deletes_.load(std::memory_order_relaxed);
  c.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  c.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  c.bytes_stored = bytes_stored_.load(std::memory_order_relaxed);
  c.bytes_served = bytes_served_.load(std::memory_order_relaxed);
  c.bytes_copied = bytes_copied_.load(std::memory_order_relaxed);
  c.scratch_allocs = scratch_allocs_.load(std::memory_order_relaxed);
  c.lock_wait_ns = lock_wait_ns_.load(std::memory_order_relaxed);
  c.live_files = live_files_.load(std::memory_order_relaxed);
  return c;
}

wire::ServerStats BulletServer::stats() const {
  const auto lock = lock_shared();
  const CounterSnapshot c = snapshot_counters();
  const FileCache::Stats cache_stats = cache_.stats();
  wire::ServerStats s;
  s.creates = c.creates;
  s.reads = c.reads;
  s.deletes = c.deletes;
  s.cache_hits = c.cache_hits;
  s.cache_misses = c.cache_misses;
  s.cache_evictions = cache_stats.evictions;
  s.bytes_stored = c.bytes_stored;
  s.bytes_served = c.bytes_served;
  s.files_live = c.live_files;
  s.disk_free_bytes = disk_free_.total_free() * layout_.block_size();
  s.disk_largest_hole_bytes = disk_free_.largest_hole() * layout_.block_size();
  s.disk_holes = disk_free_.hole_count();
  s.cache_free_bytes = cache_.free_bytes();
  s.healthy_replicas = static_cast<std::uint64_t>(disk_->healthy_count());
  s.bytes_copied = c.bytes_copied;
  s.scratch_allocs = c.scratch_allocs;
  s.evict_scans = cache_stats.evict_scans;
  const MirroredDisk::Health& health = disk_->health();
  s.io_errors = health.io_errors;
  s.read_repairs = health.read_repairs;
  s.failovers = health.failovers;
  s.bg_write_failures = health.bg_write_failures;
  if (io_counters_ != nullptr) {
    s.rx_batches = io_counters_->rx_batches.load(std::memory_order_relaxed);
    s.worker_wakeups =
        io_counters_->worker_wakeups.load(std::memory_order_relaxed);
    s.shed_pushback =
        io_counters_->shed_pushback.load(std::memory_order_relaxed);
    s.shed_dropped =
        io_counters_->shed_dropped.load(std::memory_order_relaxed);
    s.deadline_expired =
        io_counters_->deadline_expired.load(std::memory_order_relaxed);
    s.rx_queue_depth_max =
        io_counters_->rx_queue_depth_max.load(std::memory_order_relaxed);
  }
  s.inflight_sheds = inflight_sheds_.load(std::memory_order_relaxed);
  s.lock_wait_ns = c.lock_wait_ns;
  s.pinned_evict_defers = cache_stats.pinned_evict_defers;
  const AsyncDiskQueue::Stats qs = io_.stats();
  s.disk_inflight = qs.inflight;
  s.disk_queue_depth_max = qs.queue_depth_max;
  s.compact_steps = compact_steps_.load(std::memory_order_relaxed);
  s.compact_lock_hold_ns_max =
      compact_lock_hold_ns_max_.load(std::memory_order_relaxed);
  {
    std::lock_guard repl_lock(repl_mu_);
    s.repl_role = static_cast<std::uint64_t>(repl_.role);
    s.repl_peer_healthy = repl_.peer_healthy ? 1 : 0;
  }
  s.repl_pushes = repl_pushes_.load(std::memory_order_relaxed);
  s.repl_push_failures = repl_push_failures_.load(std::memory_order_relaxed);
  s.repl_installs = repl_installs_.load(std::memory_order_relaxed);
  s.repl_resyncs = repl_resyncs_.load(std::memory_order_relaxed);
  s.repl_resync_files = repl_resync_files_.load(std::memory_order_relaxed);
  s.repl_dedup_hits = repl_dedup_hits_.load(std::memory_order_relaxed);
  s.shard_id = shard_id_;
  s.shard_epoch = placement_.epoch;
  s.wrong_shard_replies = wrong_shard_replies_.load(std::memory_order_relaxed);
  s.shard_map_installs = shard_map_installs_.load(std::memory_order_relaxed);
  return s;
}

std::string BulletServer::metrics_text() const { return metrics_.render(); }

}  // namespace bullet
