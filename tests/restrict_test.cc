// Tests for capability restriction (Amoeba's std_restrict): the only
// legitimate way to weaken a capability, since the check field seals the
// rights bits.
#include <gtest/gtest.h>

#include "bullet/client.h"
#include "bullet/server.h"
#include "dir/client.h"
#include "dir/server.h"
#include "tests/test_util.h"

namespace bullet {
namespace {

using testing::BulletHarness;
using testing::payload;
using testing::status_of;

class RestrictTest : public ::testing::Test {
 protected:
  RestrictTest() {
    EXPECT_TRUE(transport_.register_service(&h_.server()).ok());
    client_ = std::make_unique<BulletClient>(&transport_,
                                             h_.server().super_capability());
  }
  BulletHarness h_;
  rpc::LoopbackTransport transport_;
  std::unique_ptr<BulletClient> client_;
};

TEST_F(RestrictTest, ReadOnlyCapCannotDelete) {
  auto cap = client_->create(payload(100, 1), 1);
  ASSERT_TRUE(cap.ok());
  auto read_only = client_->restrict(cap.value(), rights::kRead);
  ASSERT_TRUE(read_only.ok());
  EXPECT_EQ(rights::kRead, read_only.value().rights);
  // Reads work; delete is refused with `permission` (the seal is valid).
  EXPECT_TRUE(equal(payload(100, 1),
                    client_->read(read_only.value()).value()));
  EXPECT_CODE(permission, client_->erase(read_only.value()));
  // The original full-rights capability still deletes.
  EXPECT_OK(client_->erase(cap.value()));
}

TEST_F(RestrictTest, CannotEscalate) {
  auto cap = client_->create(payload(10, 1), 1);
  ASSERT_TRUE(cap.ok());
  auto read_only = client_->restrict(cap.value(), rights::kRead);
  ASSERT_TRUE(read_only.ok());
  // Restricting back up must fail...
  EXPECT_CODE(permission,
              status_of(client_->restrict(read_only.value(), rights::kAll)));
  EXPECT_CODE(permission,
              status_of(client_->restrict(
                  read_only.value(), rights::kRead | rights::kDelete)));
  // ... and hand-editing the bits fails verification outright.
  Capability forged = read_only.value();
  forged.rights = rights::kAll;
  EXPECT_CODE(bad_capability, status_of(client_->read(forged)));
}

TEST_F(RestrictTest, RestrictToSameOrNothing) {
  auto cap = client_->create(payload(10, 2), 1);
  ASSERT_TRUE(cap.ok());
  // Same rights: fine (idempotent delegation).
  auto same = client_->restrict(cap.value(), cap.value().rights);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(cap.value(), same.value());
  // Zero rights: a valid but useless capability.
  auto none = client_->restrict(cap.value(), 0);
  ASSERT_TRUE(none.ok());
  EXPECT_CODE(permission, status_of(client_->read(none.value())));
}

TEST_F(RestrictTest, RestrictedSuperCapCannotCreate) {
  auto read_super =
      client_->restrict(h_.server().super_capability(), rights::kRead);
  ASSERT_TRUE(read_super.ok());
  BulletClient weak(&transport_, read_super.value());
  EXPECT_CODE(permission, status_of(weak.create(payload(1, 1), 1)));
  // But an admin-only super cap still runs admin ops.
  auto admin_super =
      client_->restrict(h_.server().super_capability(), rights::kAdmin);
  ASSERT_TRUE(admin_super.ok());
  BulletClient admin(&transport_, admin_super.value());
  EXPECT_TRUE(admin.stats_text().ok());
}

TEST_F(RestrictTest, SurvivesReboot) {
  auto cap = client_->create(payload(50, 3), 2);
  ASSERT_TRUE(cap.ok());
  auto read_only = client_->restrict(cap.value(), rights::kRead);
  ASSERT_TRUE(read_only.ok());
  h_.reboot();
  EXPECT_TRUE(equal(payload(50, 3),
                    h_.server().read(read_only.value()).value()));
  EXPECT_CODE(permission, h_.server().erase(read_only.value()));
}

TEST_F(RestrictTest, DirectoryDelegation) {
  BulletClient storage(&transport_, h_.server().super_capability());
  auto dir_server = dir::DirServer::start(storage, dir::DirConfig());
  ASSERT_TRUE(dir_server.ok());
  ASSERT_OK(transport_.register_service(dir_server.value().get()));
  dir::DirClient names(&transport_, dir_server.value()->super_capability());

  auto dir = names.create_dir();
  ASSERT_TRUE(dir.ok());
  auto file = client_->create(as_span("shared doc"), 1);
  ASSERT_TRUE(file.ok());
  ASSERT_OK(names.enter(dir.value(), "doc", file.value()));

  // Delegate a browse-only view of the directory.
  auto browse = names.restrict(dir.value(), rights::kRead);
  ASSERT_TRUE(browse.ok());
  EXPECT_TRUE(names.lookup(browse.value(), "doc").ok());
  EXPECT_TRUE(names.list(browse.value()).ok());
  EXPECT_CODE(permission,
              names.enter(browse.value(), "sneak", file.value()));
  EXPECT_CODE(permission, names.remove(browse.value(), "doc"));
}

TEST_F(RestrictTest, InvalidCapCannotBeRestricted) {
  auto cap = client_->create(payload(10, 4), 1);
  ASSERT_TRUE(cap.ok());
  Capability forged = cap.value();
  forged.check ^= 0x2;
  EXPECT_CODE(bad_capability,
              status_of(client_->restrict(forged, rights::kRead)));
}

}  // namespace
}  // namespace bullet
