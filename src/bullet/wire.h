// Bullet service wire protocol: opcodes and shared request/reply payload
// types. The four paper operations (CREATE, SIZE, READ, DELETE) plus the
// extension the paper's §5 describes (creating a new file from an existing
// one, and partial reads for small-memory clients) and administrative
// operations.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "common/serde.h"

namespace bullet::wire {

// Opcodes. Wire-stable; append only.
inline constexpr std::uint16_t kCreate = 1;      // BULLET.CREATE
inline constexpr std::uint16_t kRead = 2;        // BULLET.READ
inline constexpr std::uint16_t kSize = 3;        // BULLET.SIZE
inline constexpr std::uint16_t kDelete = 4;      // BULLET.DELETE
inline constexpr std::uint16_t kCreateFrom = 5;  // §5 extension
inline constexpr std::uint16_t kReadRange = 6;   // §5 extension
inline constexpr std::uint16_t kStats = 7;       // admin
inline constexpr std::uint16_t kSync = 8;        // admin
inline constexpr std::uint16_t kCompactDisk = 9; // admin ("3 am" compaction)
inline constexpr std::uint16_t kFsck = 10;       // admin
inline constexpr std::uint16_t kRestrict = 11;   // mint a sub-rights cap
inline constexpr std::uint16_t kStats2 = 12;     // admin: metrics exposition
inline constexpr std::uint16_t kTraceDump = 13;  // admin: drain trace spans
inline constexpr std::uint16_t kReplicate = 14;  // admin: peer replication ops
inline constexpr std::uint16_t kReplResync = 15; // admin: reconcile with peer
inline constexpr std::uint16_t kShardMap = 16;   // admin: cluster placement map

// kReplicate sub-operations (first u8 of the request body). The two
// replicas of a pair share private port and secret, so a peer addresses
// these at the other side's super capability. A peer that refuses one
// (any error reply, not_supported included) fails that push like any
// other refusal.
inline constexpr std::uint8_t kReplInstall = 0;    // create at fixed slot
inline constexpr std::uint8_t kReplErase = 1;      // propagate a delete
inline constexpr std::uint8_t kReplManifest = 2;   // list files + tombstones
inline constexpr std::uint8_t kReplFetch = 3;      // read one file's bytes
inline constexpr std::uint8_t kReplPing = 4;       // liveness probe
inline constexpr std::uint8_t kReplTombClear = 5;  // resync done, drop tombs

// kShardMap sub-operations (first u8 of the request body). Admin-gated on
// the super capability, like kReplicate.
inline constexpr std::uint8_t kShardMapInstall = 0;  // u32 shard_id ‖ blob map
inline constexpr std::uint8_t kShardMapFetch = 1;    // -> blob map

// One step of a CREATE-FROM edit script, applied in order to a copy of the
// source file. Offsets refer to the file as it stands when the edit runs.
struct FileEdit {
  enum class Kind : std::uint8_t {
    overwrite = 0,  // replace length bytes at offset with `data`
    insert = 1,     // splice `data` in at offset
    erase = 2,      // remove [offset, offset+length)
    append = 3,     // add `data` at the end
    truncate = 4,   // cut the file to `length` bytes
  };

  Kind kind = Kind::append;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
  Bytes data;

  static FileEdit make_overwrite(std::uint32_t offset, Bytes data);
  static FileEdit make_insert(std::uint32_t offset, Bytes data);
  static FileEdit make_erase(std::uint32_t offset, std::uint32_t length);
  static FileEdit make_append(Bytes data);
  static FileEdit make_truncate(std::uint32_t length);

  void encode(Writer& w) const;
  static Result<FileEdit> decode(Reader& r);
};

// Apply an edit script to `base`; fails on out-of-range offsets.
Result<Bytes> apply_edits(ByteSpan base, std::span<const FileEdit> edits);

// Server statistics (kStats reply payload).
struct ServerStats {
  std::uint64_t creates = 0;
  std::uint64_t reads = 0;
  std::uint64_t deletes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t bytes_stored = 0;
  std::uint64_t bytes_served = 0;
  std::uint64_t files_live = 0;
  std::uint64_t disk_free_bytes = 0;
  std::uint64_t disk_largest_hole_bytes = 0;
  std::uint64_t disk_holes = 0;
  std::uint64_t cache_free_bytes = 0;
  std::uint64_t healthy_replicas = 0;
  // Hot-path cost counters (appended in the zero-copy rework; the stats
  // payload grew from 14 to 17 u64s — append-only, so old decoders that
  // stop at 14 still parse a prefix, and this decoder requires all 17).
  std::uint64_t bytes_copied = 0;    // payload bytes staged through temp buffers
  std::uint64_t scratch_allocs = 0;  // temp payload buffers heap-allocated
  std::uint64_t evict_scans = 0;     // rnodes examined choosing LRU victims
  // Degraded-mode counters (appended in the fault-injection rework; 17 ->
  // 21 u64s, same append-only discipline).
  std::uint64_t io_errors = 0;          // device-level I/O errors observed
  std::uint64_t read_repairs = 0;       // blocks healed from a mirror peer
  std::uint64_t failovers = 0;          // replica demotions since boot
  std::uint64_t bg_write_failures = 0;  // lazy (post-ack) replica writes lost
  // Concurrency counters (appended in the worker-pool rework; 21 -> 25
  // u64s, same append-only discipline).
  std::uint64_t rx_batches = 0;          // batched socket receives (recvmmsg)
  std::uint64_t worker_wakeups = 0;      // dispatch-thread wakeups
  std::uint64_t lock_wait_ns = 0;        // time spent blocked on the state lock
  std::uint64_t pinned_evict_defers = 0; // LRU victims skipped: reader pin held
  // Async-pipeline counters (appended in the disk-queue rework; 25 -> 29
  // u64s, same append-only discipline).
  std::uint64_t disk_inflight = 0;         // disk ops submitted, not completed
  std::uint64_t disk_queue_depth_max = 0;  // high-water mark of disk_inflight
  std::uint64_t compact_steps = 0;         // incremental compaction steps run
  std::uint64_t compact_lock_hold_ns_max = 0;  // longest per-step lock hold
  // Overload-control counters (appended in the admission-control rework;
  // 29 -> 33 u64s).
  std::uint64_t shed_pushback = 0;      // requests shed with a BS_PUSHBACK reply
  std::uint64_t deadline_expired = 0;   // expired requests dropped at dequeue
  std::uint64_t rx_queue_depth_max = 0; // high-water mark of queued requests
  std::uint64_t inflight_sheds = 0;     // service sheds: disk-fill bound hit
  // Replication counters (appended in the replicated-pairs rework; 33 ->
  // 41 u64s, same append-only discipline).
  std::uint64_t repl_role = 0;          // 0 solo, 1 primary, 2 backup
  std::uint64_t repl_peer_healthy = 0;  // 1 when the peer answers
  std::uint64_t repl_pushes = 0;        // creates + erases propagated OK
  std::uint64_t repl_push_failures = 0; // propagations lost -> solo degrade
  std::uint64_t repl_installs = 0;      // peer ops applied locally
  std::uint64_t repl_resyncs = 0;       // completed resync passes
  std::uint64_t repl_resync_files = 0;  // files copied by resync, cumulative
  std::uint64_t repl_dedup_hits = 0;    // retried ops answered from record
  // Cluster-placement counters (appended in the sharding rework; 41 -> 45
  // u64s, same append-only discipline).
  std::uint64_t shard_id = 0;            // this server's ring identity
  std::uint64_t shard_epoch = 0;         // installed placement-map epoch
  std::uint64_t wrong_shard_replies = 0; // routing misses answered wrong_shard
  std::uint64_t shard_map_installs = 0;  // placement maps accepted

  static constexpr std::size_t kWireSize = 45 * 8;

  void encode(Writer& w) const;
  static Result<ServerStats> decode(Reader& r);
};

// Replication manifest (kReplicate/kReplManifest reply payload): every
// live file's identity, the tombstones of deletes accepted while the peer
// was unreachable, and the reply-dedup records of recent creates so a
// resync can detect the same client operation applied independently on
// both sides of a partition. Randoms ride in the clear — this opcode is
// only reachable with the pair's shared admin capability.
struct ReplManifest {
  struct File {
    std::uint32_t object = 0;
    std::uint64_t random = 0;
    std::uint32_t size = 0;
  };
  struct Tombstone {
    std::uint32_t object = 0;
    std::uint64_t random = 0;
  };
  struct DedupRecord {
    std::uint64_t message_id = 0;
    std::uint32_t object = 0;
    std::uint64_t random = 0;
  };

  std::uint64_t role = 0;  // sender's ReplRole, for status display
  std::vector<File> files;
  std::vector<Tombstone> tombstones;
  std::vector<DedupRecord> dedups;

  void encode(Writer& w) const;
  static Result<ReplManifest> decode(Reader& r);
};

// kReplResync reply payload.
struct ReplResyncReport {
  std::uint64_t files_pulled = 0;   // copied from the peer to us
  std::uint64_t files_pushed = 0;   // copied from us to the peer
  std::uint64_t erases_applied = 0; // tombstones replayed, either direction
  std::uint64_t duplicates_reconciled = 0;  // same message id on both sides
  std::uint64_t conflicts = 0;      // same slot, different file (skipped)

  void encode(Writer& w) const;
  static Result<ReplResyncReport> decode(Reader& r);
};

// One traced request stage (kTraceDump reply: u32 count ‖ count spans).
// Matches obs::SpanRecord; kept as a separate wire type so the in-memory
// trace layout can evolve without a protocol change.
struct TraceSpan {
  std::uint64_t trace_id = 0;  // client-supplied id (0 = server-sampled)
  std::uint64_t seq = 0;       // server-assigned per-request sequence
  std::uint16_t opcode = 0;
  std::uint8_t stage = 0;      // obs::Stage value
  std::uint64_t start_ns = 0;  // server steady-clock
  std::uint64_t dur_ns = 0;

  static constexpr std::size_t kWireSize = 8 + 8 + 2 + 1 + 8 + 8;

  void encode(Writer& w) const;
  static Result<TraceSpan> decode(Reader& r);
};

// Startup / on-demand consistency-check report (kFsck reply payload).
struct FsckReport {
  std::uint64_t inodes_scanned = 0;
  std::uint64_t files = 0;
  std::uint64_t cleared_bad_bounds = 0;   // inode pointed outside the disk
  std::uint64_t cleared_overlaps = 0;     // two files shared blocks
  std::uint64_t cleared_cache_fields = 0; // stale cache_index on disk

  std::uint64_t repairs() const noexcept {
    return cleared_bad_bounds + cleared_overlaps;
  }

  void encode(Writer& w) const;
  static Result<FsckReport> decode(Reader& r);
};

}  // namespace bullet::wire
