// Primary/backup replication for Bullet pairs (DESIGN.md §14).
//
// Two servers sharing a private port and secret form a pair: a capability
// minted by one verifies at the other, so replication is — as the paper's
// immutable-file bet promises — nothing but file copy. Creates are pushed
// to the peer (same slot, same random) before the client's ack, deletes
// are pushed and tombstoned, and a manifest-diff resync reconciles the two
// stores after a crash or partition. There is no coherence protocol and no
// log shipping: files never change, so "the same file" means "the same
// (slot, random, bytes)", which a plain copy restores.
//
// Lock discipline: repl_mu_ is a leaf — never held while acquiring
// state_mu_ and never held across a peer RPC (two replicas pushing to each
// other from worker threads would deadlock otherwise).
//
// Thread discipline: pushes run on the push lane, never on a UDP worker or
// a disk-queue thread, because those serve the peer's pushes to us. A
// push's wait then never depends on a thread that is itself waiting for a
// push, whichever side the clients write to.
#include <algorithm>
#include <map>
#include <set>

#include "bullet/server.h"
#include "common/log.h"

namespace bullet {
namespace {

constexpr char kLog[] = "bullet.repl";

// Durability of peer-applied installs: at least one disk replica holds the
// file before the push is acknowledged, so an acked create survives either
// server's crash.
constexpr int kInstallPfactor = 1;

rpc::Reply status_reply(const Status& st) {
  return st.ok() ? rpc::Reply::success() : rpc::Reply::error(st.code());
}

}  // namespace

// --- pairing ------------------------------------------------------------

void BulletServer::attach_replica(rpc::Transport* transport, ReplRole role) {
  {
    const auto lock = lock_exclusive();
    set_alloc_direction_locked(role);
  }
  {
    std::lock_guard lock(repl_mu_);
    repl_ = ReplState{};
    repl_.peer = transport;
    repl_.role = role;
  }
  // Probe liveness so a pair that boots together starts healthy without
  // waiting for the first mutation or resync.
  Writer w(1);
  w.u8(wire::kReplPing);
  (void)peer_call(std::move(w).take());
}

void BulletServer::detach_replica() {
  {
    const auto lock = lock_exclusive();
    set_alloc_direction_locked(ReplRole::kSolo);
  }
  std::lock_guard lock(repl_mu_);
  repl_ = ReplState{};
}

BulletServer::ReplStatusInfo BulletServer::repl_status() const {
  std::lock_guard lock(repl_mu_);
  ReplStatusInfo info;
  info.role = repl_.role;
  info.peer_healthy = repl_.peer_healthy;
  info.peer_incompatible = repl_.peer_incompatible;
  info.resyncing = repl_.resyncing;
  info.resync_total = repl_.resync_total;
  info.resync_done = repl_.resync_done;
  return info;
}

void BulletServer::set_alloc_direction_locked(ReplRole role) {
  // Primary (and solo) servers allocate slots from the bottom of the
  // inode table, the backup from the top, so creates accepted on both
  // sides of a partition never collide on a slot until the table is more
  // than half full.
  alloc_role_ = role;
  if (role == ReplRole::kBackup) {
    std::sort(free_inodes_.begin(), free_inodes_.end());  // back() = highest
  } else {
    std::sort(free_inodes_.begin(), free_inodes_.end(),
              std::greater<std::uint32_t>());  // back() = lowest
  }
}

void BulletServer::release_slot_locked(std::uint32_t index) {
  // Solo: the freed slot is reused next. In a pair the list stays sorted,
  // so back() remains at this side's end of the table: a freed slot that
  // jumped the queue would be reused by both sides at once and collide.
  if (alloc_role_ == ReplRole::kSolo) {
    free_inodes_.push_back(index);
  } else if (alloc_role_ == ReplRole::kBackup) {
    free_inodes_.insert(
        std::lower_bound(free_inodes_.begin(), free_inodes_.end(), index),
        index);
  } else {
    free_inodes_.insert(std::lower_bound(free_inodes_.begin(),
                                         free_inodes_.end(), index,
                                         std::greater<std::uint32_t>()),
                        index);
  }
}

// --- dedup + tombstones (leaf state under repl_mu_) ----------------------

bool BulletServer::dedup_lookup(std::uint64_t message_id, rpc::Reply* out) {
  if (message_id == 0) return false;
  std::lock_guard lock(repl_mu_);
  const auto it = dedup_.find(message_id);
  if (it == dedup_.end()) return false;
  ++repl_dedup_hits_;
  *out = rpc::Reply::success(it->second.body);
  return true;
}

void BulletServer::dedup_record(std::uint64_t message_id, std::uint16_t opcode,
                                Bytes body, std::uint32_t object,
                                std::uint64_t random) {
  if (message_id == 0) return;
  std::lock_guard lock(repl_mu_);
  auto [it, inserted] = dedup_.try_emplace(message_id);
  it->second = DedupEntry{opcode, std::move(body), object, random};
  if (inserted) {
    dedup_fifo_.push_back(message_id);
    while (dedup_fifo_.size() > kDedupCap) {
      dedup_.erase(dedup_fifo_.front());
      dedup_fifo_.pop_front();
    }
  }
}

void BulletServer::record_tombstone(std::uint32_t object,
                                    std::uint64_t random) {
  std::lock_guard lock(repl_mu_);
  if (repl_.role == ReplRole::kSolo) return;  // nothing to reconcile against
  for (const auto& t : tombstones_) {
    if (t.object == object && t.random == random) return;
  }
  if (tombstones_.size() >= kTombstoneCap) {
    tombstones_.erase(tombstones_.begin());
  }
  tombstones_.push_back({object, random});
}

bool BulletServer::tombstoned(std::uint32_t object,
                              std::uint64_t random) const {
  std::lock_guard lock(repl_mu_);
  for (const auto& t : tombstones_) {
    if (t.object == object && t.random == random) return true;
  }
  return false;
}

// --- local apply (peer-originated ops) -----------------------------------

Result<Capability> BulletServer::install_object(std::uint32_t object,
                                                std::uint64_t random,
                                                ByteSpan data,
                                                std::uint64_t message_id) {
  return await<Result<Capability>>([&](auto done) {
    install_object_async(object, random, data, message_id,
                         [done](Result<Capability> cap, ByteSpan) {
                           done(std::move(cap));
                         });
  });
}

void BulletServer::install_object_async(std::uint32_t object,
                                        std::uint64_t random, ByteSpan data,
                                        std::uint64_t message_id,
                                        CreateCallback done) {
  random &= kMask48;
  if (object == 0 || random == 0) {
    done(Error(ErrorCode::bad_argument, "install needs a slot and a random"),
         ByteSpan());
    return;
  }
  // A matching tombstone means the file was created AND deleted; applying
  // the install would resurrect it. Answer with the capability the create
  // produced (idempotence for the create) and keep the delete's outcome.
  if (tombstoned(object, random)) {
    done(mint(object, random), data);
    return;
  }
  create_async(
      data, kInstallPfactor,
      [this, object, random, message_id, done = std::move(done)](
          Result<Capability> cap, ByteSpan bytes) {
        if (cap.ok() && message_id != 0) {
          Writer w(Capability::kWireSize);
          cap.value().encode(w);
          dedup_record(message_id, wire::kCreate, std::move(w).take(), object,
                       random);
        }
        done(std::move(cap), bytes);
      },
      object, random);
}

Status BulletServer::erase_object(std::uint32_t object, std::uint64_t random,
                                  std::uint64_t message_id) {
  random &= kMask48;
  if (object == 0) return Error(ErrorCode::bad_argument, "bad erase slot");
  {
    const auto lock = lock_exclusive();
    if (object < inodes_.size() && !inodes_[object].is_free() &&
        inodes_[object].random == random) {
      BULLET_RETURN_IF_ERROR(erase_index_locked(object));
      ++repl_installs_;
    }
    // Already gone, or a different incarnation lives there (the erase is
    // stale): idempotent success either way.
  }
  if (message_id != 0) {
    dedup_record(message_id, wire::kDelete, Bytes{}, object, random);
  }
  return Status::success();
}

std::uint64_t BulletServer::object_random(std::uint32_t object) const {
  const auto lock = lock_shared();
  if (object == 0 || object >= inodes_.size() || inodes_[object].is_free()) {
    return 0;
  }
  return inodes_[object].random;
}

void BulletServer::read_object_async(std::uint32_t object,
                                     std::uint64_t random, ReadCallback done) {
  read_pinned_async(
      mint(object, random & kMask48, rights::kRead),
      [this, done = std::move(done)](Result<PinnedFile> file) {
        if (file.ok()) uncount_read(file.value().data);  // not a client read
        // Another incarnation at the slot (its seal rejects ours), the
        // server object, or a foreign shard's absent object: all mean
        // this file is not here.
        if (!file.ok() && (file.code() == ErrorCode::bad_capability ||
                           file.code() == ErrorCode::bad_argument ||
                           file.code() == ErrorCode::wrong_shard)) {
          file = Error(ErrorCode::no_such_object, "object not in use");
        }
        done(std::move(file));
      });
}

wire::ReplManifest BulletServer::replica_manifest() const {
  wire::ReplManifest m;
  {
    const auto lock = lock_shared();
    for (std::uint32_t i = 1; i < inodes_.size(); ++i) {
      if (inodes_[i].is_free()) continue;
      m.files.push_back({i, inodes_[i].random, inodes_[i].size_bytes});
    }
  }
  std::lock_guard lock(repl_mu_);
  m.role = static_cast<std::uint64_t>(repl_.role);
  m.tombstones = tombstones_;
  for (const auto& [id, entry] : dedup_) {
    if (entry.opcode == wire::kCreate || entry.opcode == wire::kCreateFrom) {
      m.dedups.push_back({id, entry.object, entry.random});
    }
  }
  return m;
}

// --- the peer link -------------------------------------------------------

Result<Bytes> BulletServer::peer_call(Bytes body) {
  rpc::Transport* peer = nullptr;
  {
    std::lock_guard lock(repl_mu_);
    if (repl_.peer == nullptr) {
      return Error(ErrorCode::bad_state, "no replica attached");
    }
    if (repl_.peer_incompatible) {
      return Error(ErrorCode::not_supported, "peer is replication-unaware");
    }
    peer = repl_.peer;
  }
  rpc::Request req;
  req.target = super_capability();
  req.opcode = wire::kReplicate;
  req.body = std::move(body);
  Result<rpc::Reply> reply = peer->call(req);

  std::lock_guard lock(repl_mu_);
  if (!reply.ok()) {
    if (repl_.peer_healthy) {
      BULLET_LOG(warn, kLog) << "peer unreachable, degrading to solo: "
                             << reply.error().to_string();
    }
    repl_.peer_healthy = false;
    return reply.error();
  }
  if (reply.value().status == ErrorCode::not_supported) {
    BULLET_LOG(warn, kLog)
        << "peer rejected the replication opcode (legacy server); "
           "running solo permanently";
    repl_.peer_incompatible = true;
    repl_.peer_healthy = false;
    return Error(ErrorCode::not_supported, "peer is replication-unaware");
  }
  // The peer answered: it is alive even if it refused this operation.
  repl_.peer_healthy = true;
  if (reply.value().status != ErrorCode::ok) {
    return Error(reply.value().status, "peer refused replication op");
  }
  return std::move(reply.value()).take_payload();
}

bool BulletServer::pushing() const {
  std::lock_guard lock(repl_mu_);
  // Solo / degraded: resync reconciles later.
  return repl_.peer != nullptr && repl_.role != ReplRole::kSolo &&
         !repl_.peer_incompatible && repl_.peer_healthy;
}

void BulletServer::push_then(Bytes push, std::function<void()> then) {
  auto task = [this, push = std::move(push),
               then = std::move(then)]() mutable {
    // Re-check: an earlier push on the lane may have degraded the pair,
    // and the pushes queued behind it must not each wait out a timeout.
    if (pushing()) {
      if (peer_call(std::move(push)).ok()) {
        ++repl_pushes_;
      } else {
        ++repl_push_failures_;
      }
    }
    then();
  };
  if (push_lane_.threads() == 0) return task();
  // The request's trace moves to the lane with the push and the reply.
  push_lane_.submit_job(
      [task = std::move(task),
       trace = obs::RequestTrace::suspend()]() mutable -> Status {
        obs::RequestTrace::resume(trace);
        task();
        (void)obs::RequestTrace::suspend();
        return Status::success();
      },
      nullptr);
}

void BulletServer::replicate_create(std::uint32_t object, std::uint64_t random,
                                    ByteSpan data, std::uint64_t message_id,
                                    std::function<void()> then) {
  if (random == 0 || !pushing()) return then();
  Writer w(1 + 4 + 8 + 8 + 1 + 4 + data.size());
  w.u8(wire::kReplInstall);
  w.u32(object);
  w.u64(random);
  w.u64(message_id);
  w.u8(static_cast<std::uint8_t>(kInstallPfactor));
  w.blob(data);
  push_then(std::move(w).take(), std::move(then));
}

void BulletServer::replicate_erase(std::uint32_t object, std::uint64_t random,
                                   std::uint64_t message_id,
                                   std::function<void()> then) {
  // Tombstone first: if the push below is lost, resync replays the delete
  // instead of resurrecting the file from the peer's copy.
  record_tombstone(object, random & kMask48);
  if (!pushing()) return then();
  Writer w(1 + 4 + 8 + 8);
  w.u8(wire::kReplErase);
  w.u32(object);
  w.u64(random & kMask48);
  w.u64(message_id);
  push_then(std::move(w).take(), std::move(then));
}

// --- resync --------------------------------------------------------------

Result<wire::ReplResyncReport> BulletServer::resync_with_peer() {
  {
    std::lock_guard lock(repl_mu_);
    if (repl_.peer == nullptr) {
      return Error(ErrorCode::bad_state, "no replica attached");
    }
    if (repl_.peer_incompatible) {
      return Error(ErrorCode::not_supported, "peer is replication-unaware");
    }
    if (repl_.resyncing) {
      return Error(ErrorCode::bad_state, "resync already running");
    }
    repl_.resyncing = true;
    repl_.resync_total = 0;
    repl_.resync_done = 0;
  }
  wire::ReplResyncReport report;
  const Status st = resync_body(report);
  {
    std::lock_guard lock(repl_mu_);
    repl_.resyncing = false;
  }
  if (!st.ok()) return st.error();
  ++repl_resyncs_;
  return report;
}

Status BulletServer::resync_body(wire::ReplResyncReport& report) {
  // 1. Manifest exchange. A successful call marks the peer healthy, so
  // mutations racing this resync propagate live from here on; installs
  // and erases are idempotent, so overlap between live pushes and the
  // diff replay below is harmless.
  Writer mreq(1);
  mreq.u8(wire::kReplManifest);
  BULLET_ASSIGN_OR_RETURN(const Bytes payload, peer_call(std::move(mreq).take()));
  Reader mr{ByteSpan(payload)};
  BULLET_ASSIGN_OR_RETURN(const wire::ReplManifest theirs,
                          wire::ReplManifest::decode(mr));
  const wire::ReplManifest mine = replica_manifest();

  std::map<std::uint32_t, wire::ReplManifest::File> their_files, my_files;
  for (const auto& f : theirs.files) their_files[f.object] = f;
  for (const auto& f : mine.files) my_files[f.object] = f;
  std::set<std::pair<std::uint32_t, std::uint64_t>> their_tombs;
  for (const auto& t : theirs.tombstones) {
    their_tombs.insert({t.object, t.random});
  }

  // 2. Deletes replay before copies, in both directions, so a file that
  // was deleted on one side during the partition cannot be resurrected by
  // the copy phase (no ghost reads after convergence).
  for (const auto& t : theirs.tombstones) {
    const auto it = my_files.find(t.object);
    if (it == my_files.end() || it->second.random != t.random) continue;
    BULLET_RETURN_IF_ERROR(erase_object(t.object, t.random, 0));
    ++report.erases_applied;
    my_files.erase(it);
  }
  for (const auto& t : mine.tombstones) {
    const auto it = their_files.find(t.object);
    if (it == their_files.end() || it->second.random != t.random) continue;
    Writer w(1 + 4 + 8 + 8);
    w.u8(wire::kReplErase);
    w.u32(t.object);
    w.u64(t.random);
    w.u64(0);
    const auto erased = peer_call(std::move(w).take());
    if (!erased.ok()) return erased.error();
    ++report.erases_applied;
    their_files.erase(it);
  }

  // 3. Merge the peer's create-dedup records so a client retry that fails
  // over to us after this resync is answered from the record. A message
  // id both sides know under *different* identities means the same create
  // ran independently on both sides of the partition; neither copy is
  // deleted — we cannot know which capability the client's ack carried,
  // and an unreferenced twin is storage garbage, not a correctness
  // violation — but it is counted for the operator.
  {
    std::map<std::uint64_t, std::pair<std::uint32_t, std::uint64_t>> my_dedups;
    {
      std::lock_guard lock(repl_mu_);
      for (const auto& [id, entry] : dedup_) {
        my_dedups[id] = {entry.object, entry.random};
      }
    }
    for (const auto& d : theirs.dedups) {
      const auto it = my_dedups.find(d.message_id);
      if (it == my_dedups.end()) {
        Writer w(Capability::kWireSize);
        mint(d.object, d.random).encode(w);
        dedup_record(d.message_id, wire::kCreate, std::move(w).take(),
                     d.object, d.random);
      } else if (it->second.first != d.object ||
                 it->second.second != d.random) {
        ++report.duplicates_reconciled;
      }
    }
  }

  // Progress estimate for `status`.
  {
    std::uint64_t total = 0;
    for (const auto& [object, f] : their_files) {
      if (my_files.find(object) == my_files.end()) ++total;
    }
    for (const auto& [object, f] : my_files) {
      if (their_files.find(object) == their_files.end()) ++total;
    }
    std::lock_guard lock(repl_mu_);
    repl_.resync_total = total;
  }
  const auto tick = [this] {
    std::lock_guard lock(repl_mu_);
    ++repl_.resync_done;
  };

  // 4. Pull files the peer has and we lack — plain file copy.
  for (const auto& [object, f] : their_files) {
    const auto it = my_files.find(object);
    if (it != my_files.end()) {
      if (it->second.random != f.random) ++report.conflicts;
      continue;
    }
    Writer w(1 + 4 + 8);
    w.u8(wire::kReplFetch);
    w.u32(object);
    w.u64(f.random);
    auto fetched = peer_call(std::move(w).take());
    if (!fetched.ok()) {
      if (fetched.code() == ErrorCode::no_such_object) {
        tick();
        continue;  // deleted at the peer while we resynced
      }
      return fetched.error();
    }
    auto installed = install_object(object, f.random, fetched.value(), 0);
    if (installed.ok()) {
      ++report.files_pulled;
      ++repl_resync_files_;
    } else if (installed.code() == ErrorCode::conflict) {
      ++report.conflicts;
    } else {
      return installed.error();
    }
    tick();
  }

  // 5. Push files we have and the peer lacks — unless its tombstone says
  // the file was deleted there, in which case the delete wins here too.
  for (const auto& [object, f] : my_files) {
    if (their_files.find(object) != their_files.end()) continue;
    if (their_tombs.count({object, f.random}) != 0) {
      BULLET_RETURN_IF_ERROR(erase_object(object, f.random, 0));
      ++report.erases_applied;
      tick();
      continue;
    }
    const auto file = await<Result<PinnedFile>>(
        [&](auto done) { read_object_async(object, f.random, done); });
    if (!file.ok()) {
      if (file.code() == ErrorCode::no_such_object) {
        tick();
        continue;  // deleted locally while we resynced
      }
      return file.error();
    }
    Writer w(1 + 4 + 8 + 8 + 1 + 4 + file.value().data.size());
    w.u8(wire::kReplInstall);
    w.u32(object);
    w.u64(f.random);
    w.u64(0);
    w.u8(static_cast<std::uint8_t>(kInstallPfactor));
    w.blob(file.value().data);
    auto pushed = peer_call(std::move(w).take());
    if (pushed.ok()) {
      ++report.files_pushed;
      ++repl_resync_files_;
    } else if (pushed.code() == ErrorCode::conflict) {
      ++report.conflicts;
    } else {
      return pushed.error();
    }
    tick();
  }

  // 6. Both stores agree; the tombstones served their purpose.
  {
    std::lock_guard lock(repl_mu_);
    tombstones_.clear();
  }
  Writer w(1);
  w.u8(wire::kReplTombClear);
  const auto cleared = peer_call(std::move(w).take());
  if (!cleared.ok()) {
    BULLET_LOG(warn, kLog) << "peer tombstone clear failed (stale tombstones "
                              "remain until its next resync)";
  }
  return Status::success();
}

// --- kReplicate dispatch -------------------------------------------------

void BulletServer::handle_replicate(const rpc::Request& request,
                                    rpc::Responder respond) {
  const auto bad = [&] { respond(rpc::Reply::error(ErrorCode::bad_argument)); };
  Reader r(request.body);
  const auto subop = r.u8();
  if (!subop.ok()) return bad();
  switch (subop.value()) {
    case wire::kReplPing: {
      if (!r.done()) return bad();
      return respond(rpc::Reply::success());
    }
    case wire::kReplManifest: {
      if (!r.done()) return bad();
      Writer w;
      replica_manifest().encode(w);
      return respond(rpc::Reply::success(std::move(w).take()));
    }
    case wire::kReplInstall: {
      const auto object = r.u32();
      const auto random = r.u64();
      const auto message_id = r.u64();
      const auto pfactor = r.u8();  // reserved: installs run at pfactor 1
      const auto data = r.blob();
      if (!object.ok() || !random.ok() || !message_id.ok() || !pfactor.ok() ||
          !data.ok() || !r.done()) {
        return bad();
      }
      // The disk writes run on the queue; the ack to the peer comes from
      // the completion.
      install_object_async(
          object.value(), random.value(), data.value(), message_id.value(),
          [respond = std::move(respond)](Result<Capability> cap, ByteSpan) {
            respond(cap_reply(cap));
          });
      return;
    }
    case wire::kReplErase: {
      const auto object = r.u32();
      const auto random = r.u64();
      const auto message_id = r.u64();
      if (!object.ok() || !random.ok() || !message_id.ok() || !r.done()) {
        return bad();
      }
      const Status st =
          erase_object(object.value(), random.value(), message_id.value());
      if (st.ok()) {
        // Keep our own tombstone: if we later resync (in either role), the
        // delete must win over any stale copy.
        record_tombstone(object.value(), random.value() & kMask48);
      }
      return respond(status_reply(st));
    }
    case wire::kReplFetch: {
      const auto object = r.u32();
      const auto random = r.u64();
      if (!object.ok() || !random.ok() || !r.done()) return bad();
      // The file bytes travel borrowed from the pinned cache entry, like a
      // READ reply's.
      read_object_async(
          object.value(), random.value(),
          [respond = std::move(respond)](Result<PinnedFile> file) {
            if (!file.ok()) return respond(rpc::Reply::error(file.code()));
            respond(rpc::Reply::success_borrowed(
                Bytes{}, file.value().data, std::move(file.value().retainer)));
          });
      return;
    }
    case wire::kReplTombClear: {
      if (!r.done()) return bad();
      {
        std::lock_guard lock(repl_mu_);
        tombstones_.clear();
      }
      return respond(rpc::Reply::success());
    }
    default:
      return bad();
  }
}

rpc::Reply BulletServer::handle_repl_resync() {
  auto report = resync_with_peer();
  if (!report.ok()) return rpc::Reply::error(report.code());
  Writer w(5 * 8);
  report.value().encode(w);
  return rpc::Reply::success(std::move(w).take());
}

}  // namespace bullet
