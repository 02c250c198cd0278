// The Bullet file server.
//
// Implements the paper's architecture end to end: immutable whole files,
// stored contiguously on disk and in the RAM cache, protected by sealed
// capabilities, with write-through replication to N mirrored disks and the
// P-FACTOR durability knob on create. The same object serves requests both
// as a plain C++ API (create/read/size/erase) and as an rpc::Service.
//
// One execution path: every operation that waits on the device exists
// once, as a continuation form whose disk work runs on the AsyncDiskQueue
// (handle_async, read_pinned_async, create_async, compact_disk_async). The
// synchronous entry points — handle(), read_pinned(), read(), read_range(),
// create(), create_from(), install_object() — are blocking adapters that
// start the continuation form and wait for its callback, so in-process
// transports, tests and benches run exactly the code the UDP daemon runs.
// Never call an adapter from this server's own disk-queue thread (a
// completion callback): it would wait for work queued behind itself.
//
// Concurrency: any entry point may be called from many threads at once.
// Files are immutable, so reads need no coordination with each other — a
// cache hit takes a reader (shared) lock, pins the cache entry, and ships
// borrowed bytes whose lifetime the Reply's retainer owns. Mutations
// serialize on the writer (exclusive) lock. Replication pushes run on
// their own thread, the push lane, never on a UDP worker or a disk-queue
// thread. See DESIGN.md "Concurrency model" for the lock hierarchy and the
// pin lifecycle, "Async disk pipeline" for which work still waits on the
// device on its caller, and "Replicated pairs" for the push lane.
#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <utility>
#include <vector>

#include "bullet/extent_allocator.h"
#include "bullet/file_cache.h"
#include "bullet/layout.h"
#include "bullet/wire.h"
#include "cap/capability.h"
#include "cluster/placement.h"
#include "common/rng.h"
#include "crypto/oneway.h"
#include "disk/async_queue.h"
#include "disk/mirrored_disk.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/transport.h"
#include "sim/clock.h"

namespace bullet {

struct BulletConfig {
  // The server's private port; clients address derive_public_port(private).
  std::uint64_t private_port = 0x1B55;
  // Secret sealing key for capability check fields.
  Speck64::Key secret{0x10, 0x32, 0x54, 0x76, 0x98, 0xBA, 0xDC, 0xFE,
                      0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF};
  // RAM file cache size ("All of the server's remaining memory will be
  // used for file caching").
  std::uint64_t cache_bytes = 8ull << 20;
  // Seed for per-file random numbers.
  std::uint64_t rng_seed = 0xB0117E7;
  // Audit the mirror's "identical replicas" invariant at boot, repairing
  // divergent blocks toward the main disk (the boot authority).
  bool scrub_on_boot = true;
  // Optional virtual clock. Only used to account P-FACTOR semantics: work
  // the server performs after replying (replica writes beyond the
  // requested paranoia) is charged as background time.
  sim::Clock* clock = nullptr;
  // Completion threads for the async disk pipeline. 0 = inline
  // deterministic completions (single-threaded and virtual-time callers);
  // N > 0 = cache-miss reads and creates submitted through handle_async()
  // never touch the device on the handler thread.
  unsigned io_threads = 0;
  // Admission bound on concurrent async disk fills (miss reads + creates
  // with queued writes). When `fills_` is at the bound, a request that
  // would register a new fill is shed with ErrorCode::retry_later before
  // any allocation or device submission; joining an existing fill is
  // always admitted (no new disk work). 0 = unbounded.
  std::size_t max_inflight_fills = 0;
};

class BulletServer final : public rpc::Service {
 public:
  // Initialize a raw device as an empty Bullet disk with `inode_slots`
  // inode-table entries (slot 0 becomes the disk descriptor).
  static Status format(BlockDevice& device, std::uint32_t inode_slots);

  // Boot a server from a formatted (possibly dirty) mirror: reads the
  // complete inode table into RAM, runs the startup consistency checks, and
  // builds the free lists. `disk` must outlive the server.
  static Result<std::unique_ptr<BulletServer>> start(MirroredDisk* disk,
                                                     BulletConfig config);

  // --- the four paper operations --------------------------------------

  // BULLET.CREATE: store an immutable file; reply after `pfactor` replicas
  // hold it (0 = as soon as it is in the RAM cache). Blocking adapter over
  // create_async().
  Result<Capability> create(ByteSpan data, int pfactor);

  // BULLET.READ: the whole file. The returned span views the RAM cache and
  // is valid until the next server operation. Single-threaded callers only
  // (the span is not pinned once returned); concurrent callers use
  // read_pinned(). Fails with no_space when every arena byte is pinned and
  // the file could only be served from a private buffer.
  Result<ByteSpan> read(const Capability& cap);

  // BULLET.READ for concurrent callers: the span views the RAM cache and
  // the `retainer` keeps the entry pinned (valid, immobile, exempt from
  // eviction) until the last copy of the retainer drops. Cache hits take
  // only the shared lock. The server must outlive every retainer. Blocking
  // adapter over read_pinned_async().
  struct PinnedFile {
    ByteSpan data;
    std::shared_ptr<const void> retainer;
  };
  Result<PinnedFile> read_pinned(const Capability& cap);

  // --- continuation forms (the one execution path) ----------------------
  //
  // Each delivers its result through the callback, invoked exactly once
  // with no server lock held: synchronously for work that needed no disk
  // wait (cache hits, validation failures, io_threads == 0), or later
  // from a disk-queue completion thread. A handler thread that submits a
  // miss returns immediately to its pool. Callbacks that run later find
  // the initiating request's trace reattached (RequestTrace::resume), so
  // the reply-side spans land on the right timeline.
  using ReadCallback = std::function<void(Result<PinnedFile>)>;
  // `data` is the created file's bytes, valid only during the callback
  // (what a replicated pair pushes to its peer).
  using CreateCallback =
      std::function<void(Result<Capability>, ByteSpan data)>;
  using CompactCallback = std::function<void(Result<std::uint64_t>)>;

  // The whole file. A cache hit completes inline under the shared lock
  // only; a miss registers a fill, submits the device read and parks.
  // Concurrent misses for the same file — and reads of a file whose create
  // is still writing — join the in-flight fill instead of reading again.
  void read_pinned_async(const Capability& cap, ReadCallback done);
  // A byte range, with the same pinning contract; `data` is the requested
  // sub-range (the pin covers the whole underlying file).
  void read_range_pinned_async(const Capability& cap, std::uint32_t offset,
                               std::uint32_t length, ReadCallback done);
  // Allocation, cache ingest, and the RAM inode happen synchronously under
  // the exclusive lock (`data` need only live for the call); the P-FACTOR
  // disk writes run on the queue and the callback fires once the requested
  // paranoia holds (remaining replicas complete in the background). A
  // nonzero `slot` installs a peer's file at that inode slot with the
  // peer's `random`: the same (slot, random) already present answers with
  // its capability, and installs are exempt from max_inflight_fills (a
  // shed install would fail the push and degrade the pair).
  void create_async(ByteSpan data, int pfactor, CreateCallback done,
                    std::uint32_t slot = 0, std::uint64_t random = 0);
  // compact_disk(), continuation form: runs the incremental steps on the
  // disk queue, interleaving with normal traffic between steps.
  void compact_disk_async(CompactCallback done);

  // BULLET.SIZE.
  Result<std::uint32_t> size(const Capability& cap);

  // BULLET.DELETE.
  Status erase(const Capability& cap);

  // --- §5 extensions ----------------------------------------------------

  // Create a new file as an edited copy of an existing one, so a small
  // change does not ship the whole file over the network. The source is
  // read through the read path, then created. Blocking adapter.
  Result<Capability> create_from(const Capability& source,
                                 std::span<const wire::FileEdit> edits,
                                 int pfactor);

  // Read a byte range, for clients whose memory cannot hold the file.
  // Single-threaded callers only, like read(); a blocking adapter over
  // read_range_pinned_async().
  Result<ByteSpan> read_range(const Capability& cap, std::uint32_t offset,
                              std::uint32_t length);

  // Mint a capability for the same object with a subset of the rights
  // (Amoeba's std_restrict): the only way to weaken a capability, since
  // the check field seals the rights bits.
  Result<Capability> restrict(const Capability& cap, std::uint8_t new_rights);

  // --- administration ---------------------------------------------------

  wire::ServerStats stats() const;
  // The full named-metrics exposition (kStats2 reply payload): every
  // stats() counter plus the per-operation latency histograms, rendered in
  // Prometheus text format. See docs/PROTOCOL.md for the metric table.
  std::string metrics_text() const;
  // Surface a transport's I/O counters (rx_batches, worker_wakeups) in
  // stats(); `counters` must outlive the server or be detached (nullptr).
  void attach_io_counters(const rpc::IoCounters* counters) {
    io_counters_ = counters;
  }
  Status sync();
  // Slide files together to squeeze out the holes; returns blocks moved.
  // Internally a loop of compact_step() calls — the exclusive lock is
  // released and reacquired between steps, so concurrent traffic
  // interleaves even through the synchronous entry point.
  Result<std::uint64_t> compact_disk();

  // One bounded slice of incremental compaction: at most `max_blocks`
  // blocks copied under one exclusive-lock hold. The crash-safe
  // copy-then-flip protocol holds at every step boundary (an on-disk inode
  // only ever points at fully written data). Files with an in-flight
  // async fill or write are treated as immobile obstacles, like pinned
  // entries in FileCache::compact. Progress persists across calls; `done`
  // flips true when a full pass found everything packed.
  struct CompactProgress {
    std::uint64_t moved_blocks = 0;  // total for the current pass
    bool done = false;
  };
  static constexpr std::uint64_t kCompactStepBlocks = 64;
  Result<CompactProgress> compact_step(
      std::uint64_t max_blocks = kCompactStepBlocks);
  // Re-run the consistency checks against the in-RAM state.
  wire::FsckReport check_consistency() const;
  // Report from the startup scan.
  const wire::FsckReport& boot_report() const noexcept { return boot_report_; }

  // Capability for the server object itself (object number 0), needed for
  // CREATE and the admin operations.
  Capability super_capability(std::uint8_t rights = rights::kAll) const;

  // --- replication (replicated pairs; see DESIGN.md §14) ----------------
  //
  // Two Bullet servers sharing one private port and secret form a pair:
  // every capability verifies at either side, so clients read from
  // whichever replica answers and fail over freely. Mutations are
  // propagated to the peer before the ack (creates as kReplInstall at the
  // same slot with the same random, deletes as kReplErase plus a local
  // tombstone); a propagation failure degrades the pair to solo mode until
  // resync_with_peer() reconciles the two stores by manifest diff and
  // plain file copy. To keep independently accepted creates from fighting
  // over slots, the primary allocates inode slots from the bottom of the
  // table and the backup from the top.
  enum class ReplRole : std::uint8_t { kSolo = 0, kPrimary = 1, kBackup = 2 };

  struct ReplStatusInfo {
    ReplRole role = ReplRole::kSolo;
    bool peer_healthy = false;
    bool peer_incompatible = false;  // legacy peer rejected kReplicate
    bool resyncing = false;
    std::uint64_t resync_total = 0;  // files the running resync must move
    std::uint64_t resync_done = 0;
  };

  // Pair this server with its peer, reachable through `transport` (which
  // must outlive the server or be detached). Marks the peer healthy if it
  // answers a ping; otherwise the pair starts degraded and a later
  // resync_with_peer() brings it up.
  void attach_replica(rpc::Transport* transport, ReplRole role);
  void detach_replica();
  ReplStatusInfo repl_status() const;

  // Manifest of live files, tombstones, and recent create dedup records.
  wire::ReplManifest replica_manifest() const;

  // Reconcile the pair: exchange manifests, replay tombstones first, copy
  // missing files in both directions, resolve duplicate creates (same
  // message id applied on both sides of a partition), then clear
  // tombstones. Marks the peer healthy on success. Safe to run while
  // serving traffic; concurrent mutations propagate live once the peer is
  // marked healthy and installs are idempotent.
  Result<wire::ReplResyncReport> resync_with_peer();

  // Apply one peer-originated create at a fixed slot. Idempotent: the
  // same (object, random) already in place returns the existing
  // capability; a different live file at the slot is a conflict. A
  // matching local tombstone wins (the delete happened after the create).
  // Blocking adapter over create_async() at the fixed slot.
  Result<Capability> install_object(std::uint32_t object, std::uint64_t random,
                                    ByteSpan data, std::uint64_t message_id);
  // Apply one peer-originated delete. Idempotent: already-gone is ok.
  Status erase_object(std::uint32_t object, std::uint64_t random,
                      std::uint64_t message_id);

  // --- cluster membership (sharded placement; see DESIGN.md §15) ---------
  //
  // All shards of a cluster share one private port and secret (like a
  // replicated pair), so any capability verifies at any shard; the
  // installed placement map tells this server which slice of the object
  // space it owns. Effects of installing a map:
  //   - creates allocate only inode slots the ring assigns to `shard_id`
  //     (so a capability's object number encodes its placement);
  //   - a request for an absent object that the ring places elsewhere is
  //     answered `wrong_shard` instead of `no_such_object` — the routing
  //     client's signal to refetch the map;
  //   - an object this server actually holds is always served, whatever
  //     the map says, which is what keeps old-owner reads valid while a
  //     rebalance copies files.
  // The epoch must not regress; re-installing the current epoch is an
  // idempotent no-op.
  Status install_placement(std::uint32_t shard_id, cluster::PlacementMap map);
  // Snapshot of the installed map (epoch 0 / empty when unsharded).
  cluster::PlacementMap placement() const;
  std::uint32_t shard_id() const;

  // --- rpc::Service -----------------------------------------------------
  Port public_port() const noexcept override { return public_port_; }
  // Blocking adapter over handle_async(), for in-process transports. It
  // starts the request's trace (their sampling point) and waits for the
  // reply, which a parked request delivers from a disk-queue thread.
  rpc::Reply handle(const rpc::Request& request) override;
  // The one dispatch switch. READ, READ_RANGE, CREATE, CREATE_FROM,
  // COMPACT_DISK and the replication install/fetch reply from their
  // continuations (the handler thread never waits on the device for
  // them); every other opcode replies inline.
  void handle_async(const rpc::Request& request,
                    rpc::Responder respond) override;

  // --- introspection (tests, offline tools) -------------------------------
  struct ObjectInfo {
    std::uint32_t object = 0;
    std::uint32_t size_bytes = 0;
    std::uint32_t first_block = 0;
    bool cached = false;
  };
  // Every live file, in object order (what an offline `ls` of the disk
  // image shows; does not expose the capability randoms).
  std::vector<ObjectInfo> list_objects() const;

  const DiskLayout& layout() const noexcept { return layout_; }
  const ExtentAllocator& disk_free() const noexcept { return disk_free_; }
  const FileCache& cache() const noexcept { return cache_; }
  // The async disk pipeline (tests/bench assert on its stats — e.g. that
  // inline_completions stays 0 with a thread pool, proving no handler
  // thread ever executed a device op in submit).
  AsyncDiskQueue& io_queue() noexcept { return io_; }
  std::uint64_t live_files() const noexcept {
    return live_files_.load(std::memory_order_relaxed);
  }

 private:
  BulletServer(MirroredDisk* disk, BulletConfig config, DiskLayout layout);

  // Lock acquisition with contention accounting: try first (free when
  // uncontended, the common case), time only blocked acquisitions into
  // lock_wait_ns_.
  std::shared_lock<std::shared_mutex> lock_shared() const;
  std::unique_lock<std::shared_mutex> lock_exclusive() const;

  // The blocking adapter: run `start` with a callback, wait until the
  // callback has delivered a T, and return it. The callback hands the
  // caller's trace back if a disk-queue thread resumed it there.
  template <typename T, typename Start>
  T await(Start start);

  // The capability with `rights` for object `object` sealed with `random`.
  Capability mint(std::uint32_t object, std::uint64_t random,
                  std::uint8_t rights = rights::kAll) const;

  // create_from(), continuation form: read the source, apply the edits,
  // create the result.
  void create_from_async(const Capability& source,
                         std::vector<wire::FileEdit> edits, int pfactor,
                         CreateCallback done);

  // Take back the reads_/bytes_served_ the read path counted for a read
  // that served no client: a range that failed its bounds check, or the
  // server's own reads (CREATE-FROM's source, a peer fetch).
  void uncount_read(ByteSpan data);

  // read()/read_range() tail: the unpinned cache view of a pinned read.
  Result<ByteSpan> cache_view(const Capability& cap,
                              Result<PinnedFile> file) const;

  // Answer CREATE/CREATE-FROM: push the new file to the peer, record the
  // reply for retry dedup, respond with the capability.
  void respond_created(std::uint16_t opcode, std::uint64_t message_id,
                       const Result<Capability>& cap, ByteSpan data,
                       rpc::Responder respond);
  static rpc::Reply cap_reply(const Result<Capability>& cap);

  // erase() body after capability verification; caller holds the
  // exclusive lock (the replication erase path resolves by slot).
  Status erase_index_locked(std::uint32_t index);
  // compact_disk() body; caller holds the exclusive lock (create's
  // fragmentation fallback runs it mid-create). Runs compact_step_locked()
  // to completion without releasing the lock.
  Result<std::uint64_t> compact_disk_locked();
  // One incremental step; caller holds the exclusive lock.
  Result<CompactProgress> compact_step_locked(std::uint64_t max_blocks);

  // An in-flight asynchronous fill (read miss loading the cache) or drain
  // (create writing through). While one exists for an inode index, that
  // file is immobile to compaction and its extent/index release on erase
  // is deferred to the fill's completion — the async analogue of a cache
  // pin.
  struct Fill {
    RnodeIndex rnode = 0;         // pinned cache entry (0 = heap/bypass)
    std::uint64_t random = 0;     // identity check at completion
    std::uint64_t first_block = 0;
    std::uint64_t blocks = 0;
    bool erased = false;          // erase() arrived mid-fill: cleanup deferred
    // Requests waiting on this fill (read side): the initiator first, then
    // any concurrent misses that joined instead of re-reading. Each entry
    // carries the request's suspended trace (may be null).
    std::vector<std::pair<obs::RequestTrace*, ReadCallback>> waiters;
  };
  // read_pinned_async()'s halves. read_hit() answers under the shared lock
  // alone: the pinned file on a cache hit, or the capability check's
  // error; nullopt means a miss, which read_miss_async() serves by
  // registering (or joining) a fill. handle_async() answers a hit before
  // it builds the continuation a miss needs.
  std::optional<Result<PinnedFile>> read_hit(const Capability& cap);
  void read_miss_async(const Capability& cap, ReadCallback done);
  // Completion of a read fill: validate identity, publish or roll back the
  // cache entry, deliver every waiter. Takes the exclusive lock.
  void complete_read_fill(std::uint32_t index, Status st,
                          const DiskOpTiming& timing,
                          std::shared_ptr<Bytes> heap);
  // Release a create fill's bookkeeping once its disk writes are done;
  // caller holds the exclusive lock. Returns the deliveries owed to read
  // waiters that joined mid-create, served from the create's `image`
  // (kept alive by `image_owner` when it is not in the arena) — the caller
  // invokes them after unlocking (callbacks never run under the state
  // lock).
  std::vector<std::function<void()>> release_fill_locked(
      std::uint32_t index, ByteSpan image,
      std::shared_ptr<const void> image_owner);

  struct CreateCtx;  // create_async's continuation state (server.cc)
  // Book a create whose acked replicas hold: counters and the capability
  // (sealed with the random set at allocation, even if an erase has since
  // zeroed the inode). Exclusive lock.
  Capability commit_create_locked(const CreateCtx& ctx);
  // Queue the replicas beyond the ack, then release the create's fill.
  void write_behind(std::shared_ptr<CreateCtx> ctx);

  // Incremental compaction state machine; guarded by state_mu_. At most
  // one move is in flight; `held` ranges are reserved in disk_free_ so
  // data always lands in free blocks before an inode flips to them (the
  // same crash-safe copy-then-flip protocol as the monolithic pass), and
  // concurrent creates can never allocate into a move's target.
  struct CompactState {
    bool active = false;     // a pass is underway (cursor/moved_total valid)
    bool moving = false;     // a file move is in flight
    std::uint32_t inode = 0;
    std::uint64_t random = 0;   // identity of the moving file at move start
    std::uint64_t src = 0;      // extent the inode currently points at
    std::uint64_t target = 0;
    std::uint64_t staging = 0;  // bounce extent (overlapping moves)
    std::uint64_t hole = 0;     // free prefix [target, src) of an overlap move
    std::uint64_t blocks = 0;
    std::uint64_t copied = 0;   // blocks copied within the current hop
    int hop = 0;  // 0: src->target; 1: src->staging; 2: staging->target
    std::uint64_t cursor = 0;
    std::uint64_t moved_total = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> held;
  };
  // Abandon the in-flight move (identity changed, I/O error): release every
  // held range back to disk_free_. Caller holds the exclusive lock.
  void compact_abandon_move_locked();

  // Wrap a pin the caller already took (touch_and_pin()/pin()) in a
  // Reply-attachable token; the last copy dropping releases the pin.
  std::shared_ptr<const void> make_retainer(RnodeIndex rnode);

  // Startup: scan inodes, repair, build free lists.
  Status boot();

  // Rebuild the data-region free list from the RAM inode table (boot, and
  // after compaction has moved files around).
  Status rebuild_disk_free();

  // Capability checking: map cap -> inode, verifying the seal and rights.
  Result<std::uint32_t> verify(const Capability& cap,
                               std::uint8_t required) const;

  // Write block-aligned file bytes (the cache arena's padded allocation,
  // padding already zeroed) at `first_block` on up to `max_replicas`
  // replicas; returns replicas written. No staging: `data` goes to the
  // device directly.
  Result<int> write_file_data(std::uint64_t first_block, ByteSpan data,
                              int max_replicas);

  // Write-through of the device block holding inode `index`, serialized
  // from the RAM inode table.
  Result<int> write_inode_block(std::uint32_t index, int max_replicas);
  Bytes serialize_inode_block(std::uint64_t device_block) const;

  void clear_cache_index(std::uint32_t inode_index);
  void drop_evicted(const std::vector<std::uint32_t>& evicted);

  // --- replication internals (replica.cc) -------------------------------
  //
  // repl_mu_ is a leaf lock: never held while acquiring state_mu_, and
  // never held across a peer RPC — a pair of servers propagating to each
  // other from worker threads would deadlock otherwise.

  // The recorded reply of a completed mutating operation, keyed by the
  // client's message_id (rpc/message.h): the cross-replica ReplyCache.
  struct DedupEntry {
    std::uint16_t opcode = 0;
    Bytes body;                  // the ok reply's body, replayed verbatim
    std::uint32_t object = 0;    // for creates: what the reply named
    std::uint64_t random = 0;
  };
  bool dedup_lookup(std::uint64_t message_id, rpc::Reply* out);
  void dedup_record(std::uint64_t message_id, std::uint16_t opcode,
                    Bytes body, std::uint32_t object, std::uint64_t random);

  void record_tombstone(std::uint32_t object, std::uint64_t random);
  bool tombstoned(std::uint32_t object, std::uint64_t random) const;

  // Propagate a completed local mutation to the peer, then run `then`
  // (the reply). The push is skipped in solo mode or while the peer is
  // down; a failed push degrades to solo. Called with no locks held,
  // after the local apply succeeded.
  void replicate_create(std::uint32_t object, std::uint64_t random,
                        ByteSpan data, std::uint64_t message_id,
                        std::function<void()> then);
  void replicate_erase(std::uint32_t object, std::uint64_t random,
                       std::uint64_t message_id, std::function<void()> then);
  // True while mutations are pushed: a peer is attached, compatible and
  // up, and this server is not solo.
  bool pushing() const;
  // Run `push` through peer_call, then `then`, on the push lane.
  void push_then(Bytes push, std::function<void()> then);

  // kReplicate / kReplResync dispatch (called from handle_async()).
  void handle_replicate(const rpc::Request& request, rpc::Responder respond);
  rpc::Reply handle_repl_resync();
  // install_object(), continuation form (a kReplInstall replies from it).
  void install_object_async(std::uint32_t object, std::uint64_t random,
                            ByteSpan data, std::uint64_t message_id,
                            CreateCallback done);
  // Read a live file by (slot, random) for the peer: a file that is gone
  // or was replaced reads as no_such_object.
  void read_object_async(std::uint32_t object, std::uint64_t random,
                         ReadCallback done);
  // kShardMap dispatch (called from handle_async()).
  rpc::Reply handle_shard_map(const rpc::Request& request);

  // The free inode slot a fresh create should use: the allocation-direction
  // end of free_inodes_ when unsharded, else the nearest free slot the ring
  // assigns to this shard. Caller holds the exclusive lock; the slot stays
  // on free_inodes_ until unlink_free_slot_locked().
  Result<std::uint32_t> pick_free_slot_locked() const;
  void unlink_free_slot_locked(std::uint32_t index);

  // One kReplicate RPC to the peer's super capability (the pair shares
  // port and secret, so our super capability verifies there). Updates
  // peer health: a transport failure marks the peer down, not_supported
  // marks it permanently incompatible (legacy server), any answer marks
  // it up. Returns the ok reply's payload.
  Result<Bytes> peer_call(Bytes body);

  // resync_with_peer() body (the wrapper manages the resyncing flag).
  Status resync_body(wire::ReplResyncReport& report);

  // The sealed random of a live object (0 if free/out of range).
  std::uint64_t object_random(std::uint32_t object) const;

  // Re-sort free_inodes_ so back() matches the allocation direction for
  // `role`. Caller holds the exclusive lock.
  void set_alloc_direction_locked(ReplRole role);
  // Return a slot to free_inodes_ in allocation-direction order. Caller
  // holds the exclusive lock.
  void release_slot_locked(std::uint32_t index);

  MirroredDisk* disk_;
  BulletConfig config_;
  DiskLayout layout_;
  Port public_port_;
  CheckSealer sealer_;
  Rng rng_;
  std::uint64_t super_random_ = 0;

  // Guards inodes_, free_inodes_, disk_free_ structure, and live-file
  // bookkeeping: shared for reads of the table (the read hot path, stats,
  // introspection), exclusive for any mutation. The cache and allocator
  // carry their own leaf locks; lock order is state lock -> cache mutex ->
  // allocator mutex, never the reverse.
  mutable std::shared_mutex state_mu_;

  std::vector<Inode> inodes_;            // the RAM inode table (slot 0 unused)
  std::vector<std::uint32_t> free_inodes_;
  ReplRole alloc_role_ = ReplRole::kSolo;  // see set_alloc_direction_locked
  ExtentAllocator disk_free_;            // device blocks in the data region
  FileCache cache_;

  wire::FsckReport boot_report_;
  std::atomic<std::uint64_t> live_files_{0};

  // In-flight async fills by inode index; guarded by state_mu_.
  std::map<std::uint32_t, Fill> fills_;
  // Incremental-compaction cursor/move state and its reusable bounce
  // chunk; guarded by state_mu_.
  CompactState compact_;
  Bytes compact_chunk_;

  const rpc::IoCounters* io_counters_ = nullptr;

  // Counters surfaced via stats(). Relaxed atomics: readers bump them
  // under the shared lock, concurrently with each other.
  mutable std::atomic<std::uint64_t> creates_{0};
  mutable std::atomic<std::uint64_t> reads_{0};
  mutable std::atomic<std::uint64_t> deletes_{0};
  mutable std::atomic<std::uint64_t> cache_hits_{0};
  mutable std::atomic<std::uint64_t> cache_misses_{0};
  mutable std::atomic<std::uint64_t> bytes_stored_{0};
  mutable std::atomic<std::uint64_t> bytes_served_{0};
  // Hot-path cost counters: payload bytes memcpy'd through temporary
  // staging buffers and the number of such buffers allocated. The READ and
  // CREATE fast paths contribute zero to both; what remains is create-from
  // edit application and disk compaction.
  mutable std::atomic<std::uint64_t> bytes_copied_{0};
  mutable std::atomic<std::uint64_t> scratch_allocs_{0};
  // Nanoseconds spent blocked acquiring state_mu_ (either mode).
  mutable std::atomic<std::uint64_t> lock_wait_ns_{0};
  // Incremental-compaction accounting: steps executed, and the longest
  // exclusive-lock hold any single step cost (the headline bound the
  // incremental design exists to keep small).
  std::atomic<std::uint64_t> compact_steps_{0};
  std::atomic<std::uint64_t> compact_lock_hold_ns_max_{0};
  // Requests shed at the service layer because the in-flight disk-fill
  // bound (BulletConfig::max_inflight_fills) was hit.
  mutable std::atomic<std::uint64_t> inflight_sheds_{0};

  // Cluster placement; guarded by state_mu_ (read on the verify path under
  // the shared lock, swapped under the exclusive lock on install).
  cluster::PlacementMap placement_;
  cluster::Ring ring_;
  std::uint32_t shard_id_ = 0;
  bool sharded_ = false;
  mutable std::atomic<std::uint64_t> wrong_shard_replies_{0};
  std::atomic<std::uint64_t> shard_map_installs_{0};

  // Replication pair state; guarded by repl_mu_ (leaf lock, see above).
  struct ReplState {
    rpc::Transport* peer = nullptr;
    ReplRole role = ReplRole::kSolo;
    bool peer_healthy = false;
    bool peer_incompatible = false;
    bool resyncing = false;
    std::uint64_t resync_total = 0;
    std::uint64_t resync_done = 0;
  };
  static constexpr std::size_t kDedupCap = 8192;
  static constexpr std::size_t kTombstoneCap = 65536;
  mutable std::mutex repl_mu_;
  ReplState repl_;
  std::vector<wire::ReplManifest::Tombstone> tombstones_;
  std::map<std::uint64_t, DedupEntry> dedup_;
  std::deque<std::uint64_t> dedup_fifo_;  // FIFO eviction at kDedupCap
  // Replication counters surfaced via stats().
  mutable std::atomic<std::uint64_t> repl_pushes_{0};
  mutable std::atomic<std::uint64_t> repl_push_failures_{0};
  mutable std::atomic<std::uint64_t> repl_installs_{0};
  mutable std::atomic<std::uint64_t> repl_resyncs_{0};
  mutable std::atomic<std::uint64_t> repl_resync_files_{0};
  mutable std::atomic<std::uint64_t> repl_dedup_hits_{0};

  // A relaxed-load pass over the counters above, decoupling the snapshot
  // from the field-by-field reads stats()/metrics_text() render from.
  struct CounterSnapshot {
    std::uint64_t creates, reads, deletes, cache_hits, cache_misses;
    std::uint64_t bytes_stored, bytes_served, bytes_copied, scratch_allocs;
    std::uint64_t lock_wait_ns, live_files;
  };
  CounterSnapshot snapshot_counters() const noexcept;

  // Per-operation service latencies (sampled requests only — the sampling
  // decision is shared with tracing, see obs/trace.h) and per-op disk I/O
  // latencies (every traced request's disk phase). Exposed via kStats2.
  obs::LatencyHistogram read_latency_ns_;
  obs::LatencyHistogram create_latency_ns_;
  obs::LatencyHistogram delete_latency_ns_;
  obs::LatencyHistogram disk_read_latency_ns_;
  obs::LatencyHistogram disk_write_latency_ns_;
  obs::MetricsRegistry metrics_;

  // The push lane: one thread that makes every replication push and sends
  // the reply waiting on it (inline when io_threads == 0). It runs jobs,
  // never device operations. Pushes must not block the threads that serve
  // the peer's inbound replication (UDP workers and disk-queue threads):
  // two servers pushing to each other could then each hold the threads
  // the other's pushes wait for. Destroyed after io_, whose completions
  // post to it, and before everything its jobs touch.
  AsyncDiskQueue push_lane_;

  // Last member on purpose: destroyed first, so its destructor drains
  // every pending completion while the rest of the server (cache, inode
  // table, allocator) is still alive.
  AsyncDiskQueue io_;
};

template <typename T, typename Start>
T BulletServer::await(Start start) {
  assert(!io_.in_completion() &&
         "blocking adapter called from this server's disk-queue thread");
  // Most operations answer before start() returns, on this thread (cache
  // hits; all work when io_threads == 0): that result needs no
  // synchronization. Only a parked operation, delivered from another
  // thread, goes through the mutex and condition variable.
  struct Waiter {
    const std::thread::id caller = std::this_thread::get_id();
    obs::RequestTrace* const trace = obs::RequestTrace::current();
    bool answered_inline = false;  // caller thread only
    std::mutex mu;
    std::condition_variable cv;
    bool delivered = false;        // guarded by mu
    std::optional<T> result;       // inline: caller thread; else under mu
  } waiter;
  start([w = &waiter](T result) {
    if (std::this_thread::get_id() == w->caller) {
      w->result.emplace(std::move(result));
      w->answered_inline = true;
      return;
    }
    // A parked operation delivers on a disk-queue thread with the caller's
    // trace resumed there; detach it so the caller can take it back.
    if (w->trace != nullptr && obs::RequestTrace::current() == w->trace) {
      (void)obs::RequestTrace::suspend();
    }
    std::lock_guard<std::mutex> lock(w->mu);
    w->result.emplace(std::move(result));
    w->delivered = true;
    w->cv.notify_one();
  });
  if (!waiter.answered_inline) {
    std::unique_lock<std::mutex> lock(waiter.mu);
    waiter.cv.wait(lock, [&] { return waiter.delivered; });
  }
  obs::RequestTrace::resume(waiter.trace);
  return std::move(*waiter.result);
}

}  // namespace bullet
