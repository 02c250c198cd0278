// The directory server.
//
// Maps human-chosen names to capabilities, providing Amoeba's single global
// naming space. Each directory is itself an object addressed by a
// capability, and its contents are persisted as an *immutable Bullet file*:
// every mutation writes a new version of the backing file and deletes the
// old one, which is exactly the file-as-sequence-of-versions model the
// paper's §2 describes.
//
// Bootstrap: the server's own object table is persisted on demand with
// `checkpoint()`, which stores it in a Bullet file and returns that file's
// capability; `DirConfig::restore_from` reloads it at start. (Amoeba's
// directory server kept this on its own replicated disk; a saved bootstrap
// capability plays that role here.)
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "bullet/client.h"
#include "cap/capability.h"
#include "common/fifo_record.h"
#include "common/rng.h"
#include "crypto/oneway.h"
#include "dir/wire.h"
#include "rpc/transport.h"

namespace bullet::dir {

struct DirConfig {
  std::uint64_t private_port = 0xD12;
  Speck64::Key secret{0xA1, 0xB2, 0xC3, 0xD4, 0xE5, 0xF6, 0x07, 0x18,
                      0x29, 0x3A, 0x4B, 0x5C, 0x6D, 0x7E, 0x8F, 0x90};
  std::uint64_t rng_seed = 0xD1CE;
  // Durability requested from the Bullet server for directory contents.
  int pfactor = 1;
  // Reload state persisted by a previous checkpoint(); null to start empty.
  Capability restore_from;
};

class DirServer final : public rpc::Service {
 public:
  // `storage` (a client of the Bullet server backing the directories) is
  // copied in; its transport must outlive this server.
  static Result<std::unique_ptr<DirServer>> start(BulletClient storage,
                                                  DirConfig config);

  // --- local API ---------------------------------------------------------

  Result<Capability> create_dir();
  Status delete_dir(const Capability& dir);
  Result<Capability> lookup(const Capability& dir, const std::string& name);
  Status enter(const Capability& dir, const std::string& name,
               const Capability& target);
  // Atomically rebind `name`, returning the previous capability.
  Result<Capability> replace(const Capability& dir, const std::string& name,
                             const Capability& target);
  // Rebind only if the current binding equals `expected` (optimistic
  // concurrency over file versions); ErrorCode::conflict otherwise.
  Result<Capability> cas_replace(const Capability& dir,
                                 const std::string& name,
                                 const Capability& expected,
                                 const Capability& target);
  Status remove(const Capability& dir, const std::string& name);
  Result<std::vector<DirEntry>> list(const Capability& dir);

  // Persist the whole object table to a Bullet file; feed the returned
  // capability to DirConfig::restore_from on the next start.
  Result<Capability> checkpoint();

  // --- cluster placement map (see DESIGN.md §15) --------------------------
  //
  // The dir server is the placement map's durable home: the map is opaque
  // bytes (cluster/placement.h defines the contents) persisted as an
  // immutable Bullet file like any directory, versioned by `epoch`.
  // Clients fetch it once and route locally; the rebalance driver installs
  // a new epoch only after every Bullet shard holds it, so a routing
  // client's map is never newer than the shard it routes to. Installing a
  // lower epoch fails with conflict; re-installing the current epoch with
  // identical bytes is an idempotent no-op.
  Status install_map(std::uint64_t epoch, ByteSpan map);
  // The current map ({0, empty} before any install).
  std::uint64_t map_epoch() const noexcept { return map_epoch_; }
  const Bytes& map_bytes() const noexcept { return map_bytes_; }

  // Mint a weaker capability for the same directory (Amoeba std_restrict).
  Result<Capability> restrict(const Capability& cap, std::uint8_t new_rights);

  std::size_t directory_count() const noexcept { return objects_.size(); }
  // Retried mutations answered from the message-id record.
  std::uint64_t record_hits() const noexcept { return record_hits_; }

  // Capability for the server object itself (object number 0): create_dir
  // needs the write right on it, checkpoint the admin right.
  Capability super_capability(std::uint8_t rights = rights::kAll) const;

  // --- rpc::Service -------------------------------------------------------
  Port public_port() const noexcept override { return public_port_; }
  rpc::Reply handle(const rpc::Request& request) override;

 private:
  struct DirObject {
    std::uint64_t random = 0;      // capability key
    Capability storage;            // Bullet file holding the entries
    std::map<std::string, Capability> entries;
  };

  DirServer(BulletClient storage, DirConfig config);

  Status restore(const Capability& snapshot);
  Result<std::uint32_t> verify(const Capability& cap,
                               std::uint8_t required) const;
  // verify() plus rejection of the super object (0), which is not a
  // directory.
  Result<std::uint32_t> verify_dir(const Capability& cap,
                                   std::uint8_t required) const;
  Capability make_capability(std::uint32_t object, std::uint64_t random,
                             std::uint8_t rights) const;

  // Persist a directory's entries as a fresh Bullet file version and
  // delete the superseded version.
  Status persist(DirObject& dir);

  // handle() without the message-id record.
  rpc::Reply dispatch(const rpc::Request& request);

  BulletClient storage_;
  DirConfig config_;
  Port public_port_;
  CheckSealer sealer_;
  Rng rng_;
  std::uint64_t super_random_ = 0;

  std::map<std::uint32_t, DirObject> objects_;
  std::uint32_t next_object_ = 1;

  // The ok reply body of each recent mutation that carried a message id
  // (rpc/message.h), oldest evicted first. UdpServer keeps no reply, so a
  // retransmit that arrives after the reply reaches handle() again; this
  // record answers it instead of a second CREATE-DIR, or an ENTER that
  // would now fail with already_exists.
  FifoRecord<std::uint64_t, Bytes> replies_{1024};
  std::uint64_t record_hits_ = 0;

  // Cluster placement map: version, contents, and the Bullet file holding
  // the persisted copy (kept current by install_map; carried through
  // checkpoint/restore).
  std::uint64_t map_epoch_ = 0;
  Bytes map_bytes_;
  Capability map_storage_;
};

}  // namespace bullet::dir
