#include "bullet/wire.h"

namespace bullet::wire {

FileEdit FileEdit::make_overwrite(std::uint32_t offset, Bytes data) {
  FileEdit e;
  e.kind = Kind::overwrite;
  e.offset = offset;
  e.length = static_cast<std::uint32_t>(data.size());
  e.data = std::move(data);
  return e;
}

FileEdit FileEdit::make_insert(std::uint32_t offset, Bytes data) {
  FileEdit e;
  e.kind = Kind::insert;
  e.offset = offset;
  e.length = static_cast<std::uint32_t>(data.size());
  e.data = std::move(data);
  return e;
}

FileEdit FileEdit::make_erase(std::uint32_t offset, std::uint32_t length) {
  FileEdit e;
  e.kind = Kind::erase;
  e.offset = offset;
  e.length = length;
  return e;
}

FileEdit FileEdit::make_append(Bytes data) {
  FileEdit e;
  e.kind = Kind::append;
  e.length = static_cast<std::uint32_t>(data.size());
  e.data = std::move(data);
  return e;
}

FileEdit FileEdit::make_truncate(std::uint32_t length) {
  FileEdit e;
  e.kind = Kind::truncate;
  e.length = length;
  return e;
}

void FileEdit::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(offset);
  w.u32(length);
  w.blob(data);
}

Result<FileEdit> FileEdit::decode(Reader& r) {
  FileEdit e;
  BULLET_ASSIGN_OR_RETURN(const std::uint8_t kind, r.u8());
  if (kind > static_cast<std::uint8_t>(Kind::truncate)) {
    return Error(ErrorCode::bad_argument, "unknown edit kind");
  }
  e.kind = static_cast<Kind>(kind);
  BULLET_ASSIGN_OR_RETURN(e.offset, r.u32());
  BULLET_ASSIGN_OR_RETURN(e.length, r.u32());
  BULLET_ASSIGN_OR_RETURN(ByteSpan data, r.blob());
  e.data.assign(data.begin(), data.end());
  return e;
}

Result<Bytes> apply_edits(ByteSpan base, std::span<const FileEdit> edits) {
  Bytes out(base.begin(), base.end());
  for (const FileEdit& e : edits) {
    switch (e.kind) {
      case FileEdit::Kind::overwrite: {
        if (e.offset > out.size() || e.data.size() > out.size() - e.offset) {
          return Error(ErrorCode::bad_argument, "overwrite out of range");
        }
        std::copy(e.data.begin(), e.data.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(e.offset));
        break;
      }
      case FileEdit::Kind::insert: {
        if (e.offset > out.size()) {
          return Error(ErrorCode::bad_argument, "insert out of range");
        }
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(e.offset),
                   e.data.begin(), e.data.end());
        break;
      }
      case FileEdit::Kind::erase: {
        if (e.offset > out.size() || e.length > out.size() - e.offset) {
          return Error(ErrorCode::bad_argument, "erase out of range");
        }
        out.erase(out.begin() + static_cast<std::ptrdiff_t>(e.offset),
                  out.begin() + static_cast<std::ptrdiff_t>(e.offset) +
                      static_cast<std::ptrdiff_t>(e.length));
        break;
      }
      case FileEdit::Kind::append: {
        append(out, e.data);
        break;
      }
      case FileEdit::Kind::truncate: {
        if (e.length > out.size()) {
          return Error(ErrorCode::bad_argument, "truncate beyond end");
        }
        out.resize(e.length);
        break;
      }
    }
  }
  return out;
}

void ReplManifest::encode(Writer& w) const {
  w.u64(role);
  w.u32(static_cast<std::uint32_t>(files.size()));
  for (const File& f : files) {
    w.u32(f.object);
    w.u64(f.random);
    w.u32(f.size);
  }
  w.u32(static_cast<std::uint32_t>(tombstones.size()));
  for (const Tombstone& t : tombstones) {
    w.u32(t.object);
    w.u64(t.random);
  }
  w.u32(static_cast<std::uint32_t>(dedups.size()));
  for (const DedupRecord& d : dedups) {
    w.u64(d.message_id);
    w.u32(d.object);
    w.u64(d.random);
  }
}

namespace {

// A manifest arrives in a peer's reply, so its counts are untrusted: a
// count the remaining bytes cannot hold is corrupt and must not drive a
// reserve.
Result<std::uint32_t> read_count(Reader& r, std::size_t entry_size) {
  BULLET_ASSIGN_OR_RETURN(const std::uint32_t count, r.u32());
  if (count > r.remaining() / entry_size) {
    return Error(ErrorCode::corrupt, "manifest count exceeds payload");
  }
  return count;
}

}  // namespace

Result<ReplManifest> ReplManifest::decode(Reader& r) {
  ReplManifest m;
  BULLET_ASSIGN_OR_RETURN(m.role, r.u64());
  BULLET_ASSIGN_OR_RETURN(const std::uint32_t nfiles, read_count(r, 16));
  m.files.reserve(nfiles);
  for (std::uint32_t i = 0; i < nfiles; ++i) {
    File f;
    BULLET_ASSIGN_OR_RETURN(f.object, r.u32());
    BULLET_ASSIGN_OR_RETURN(f.random, r.u64());
    BULLET_ASSIGN_OR_RETURN(f.size, r.u32());
    m.files.push_back(f);
  }
  BULLET_ASSIGN_OR_RETURN(const std::uint32_t ntombs, read_count(r, 12));
  m.tombstones.reserve(ntombs);
  for (std::uint32_t i = 0; i < ntombs; ++i) {
    Tombstone t;
    BULLET_ASSIGN_OR_RETURN(t.object, r.u32());
    BULLET_ASSIGN_OR_RETURN(t.random, r.u64());
    m.tombstones.push_back(t);
  }
  BULLET_ASSIGN_OR_RETURN(const std::uint32_t ndedups, read_count(r, 20));
  m.dedups.reserve(ndedups);
  for (std::uint32_t i = 0; i < ndedups; ++i) {
    DedupRecord d;
    BULLET_ASSIGN_OR_RETURN(d.message_id, r.u64());
    BULLET_ASSIGN_OR_RETURN(d.object, r.u32());
    BULLET_ASSIGN_OR_RETURN(d.random, r.u64());
    m.dedups.push_back(d);
  }
  return m;
}

void ReplResyncReport::encode(Writer& w) const {
  w.u64(files_pulled);
  w.u64(files_pushed);
  w.u64(erases_applied);
  w.u64(duplicates_reconciled);
  w.u64(conflicts);
}

Result<ReplResyncReport> ReplResyncReport::decode(Reader& r) {
  ReplResyncReport p;
  BULLET_ASSIGN_OR_RETURN(p.files_pulled, r.u64());
  BULLET_ASSIGN_OR_RETURN(p.files_pushed, r.u64());
  BULLET_ASSIGN_OR_RETURN(p.erases_applied, r.u64());
  BULLET_ASSIGN_OR_RETURN(p.duplicates_reconciled, r.u64());
  BULLET_ASSIGN_OR_RETURN(p.conflicts, r.u64());
  return p;
}

void FsckReport::encode(Writer& w) const {
  w.u64(inodes_scanned);
  w.u64(files);
  w.u64(cleared_bad_bounds);
  w.u64(cleared_overlaps);
  w.u64(cleared_cache_fields);
}

Result<FsckReport> FsckReport::decode(Reader& r) {
  FsckReport f;
  BULLET_ASSIGN_OR_RETURN(f.inodes_scanned, r.u64());
  BULLET_ASSIGN_OR_RETURN(f.files, r.u64());
  BULLET_ASSIGN_OR_RETURN(f.cleared_bad_bounds, r.u64());
  BULLET_ASSIGN_OR_RETURN(f.cleared_overlaps, r.u64());
  BULLET_ASSIGN_OR_RETURN(f.cleared_cache_fields, r.u64());
  return f;
}

void TraceSpan::encode(Writer& w) const {
  w.u64(trace_id);
  w.u64(seq);
  w.u16(opcode);
  w.u8(stage);
  w.u64(start_ns);
  w.u64(dur_ns);
}

Result<TraceSpan> TraceSpan::decode(Reader& r) {
  TraceSpan s;
  BULLET_ASSIGN_OR_RETURN(s.trace_id, r.u64());
  BULLET_ASSIGN_OR_RETURN(s.seq, r.u64());
  BULLET_ASSIGN_OR_RETURN(s.opcode, r.u16());
  BULLET_ASSIGN_OR_RETURN(s.stage, r.u8());
  BULLET_ASSIGN_OR_RETURN(s.start_ns, r.u64());
  BULLET_ASSIGN_OR_RETURN(s.dur_ns, r.u64());
  return s;
}

}  // namespace bullet::wire
