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
// 7 was STATS, a fixed u64 block retired in favour of STATS2; it answers
// not_supported and is never reassigned.
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

// Replication manifest (kReplicate/kReplManifest reply payload): every
// live file's identity, the tombstone of every delete since the sender's
// last resync (newest 65536, in delete order), and the reply-dedup records
// of recent creates, oldest first, so a resync can detect the same client
// operation applied independently on both sides of a partition. Randoms
// ride in the clear — this opcode is only reachable with the pair's shared
// admin capability.
struct ReplManifest {
  struct File {
    std::uint32_t object = 0;
    std::uint64_t random = 0;
    std::uint32_t size = 0;
  };
  struct Tombstone {
    std::uint32_t object = 0;
    std::uint64_t random = 0;
    friend bool operator==(const Tombstone&, const Tombstone&) = default;
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
