// RPC surface of the DirServer.
#include "dir/server.h"

namespace bullet::dir {
namespace {

rpc::Reply to_reply(const Status& status) {
  return status.ok() ? rpc::Reply::success() : rpc::Reply::error(status.code());
}

rpc::Reply cap_reply(const Result<Capability>& cap) {
  if (!cap.ok()) return rpc::Reply::error(cap.code());
  Writer w(Capability::kWireSize);
  cap.value().encode(w);
  return rpc::Reply::success(std::move(w).take());
}

// Opcodes whose second run would answer differently from the first: it
// would make another directory or checkpoint file, or fail because the
// first run already changed the entry, the directory or the map epoch.
// LOOKUP, LIST, RESTRICT, FETCH-MAP and EPOCH answer the same again.
bool recorded(std::uint16_t opcode) {
  switch (opcode) {
    case kCreateDir:
    case kEnter:
    case kReplace:
    case kCasReplace:
    case kRemove:
    case kDeleteDir:
    case kCheckpoint:
    case kInstallMap:
      return true;
    default:
      return false;
  }
}

}  // namespace

rpc::Reply DirServer::handle(const rpc::Request& request) {
  if (request.message_id == 0 || !recorded(request.opcode)) {
    return dispatch(request);
  }
  if (const Bytes* body = replies_.find(request.message_id)) {
    ++record_hits_;
    return rpc::Reply::success(*body);
  }
  rpc::Reply reply = dispatch(request);
  // A failed mutation changed nothing, so only a success needs recording.
  if (reply.status == ErrorCode::ok) {
    replies_.put(request.message_id, reply.body);
  }
  return reply;
}

rpc::Reply DirServer::dispatch(const rpc::Request& request) {
  Reader body(request.body);
  switch (request.opcode) {
    case kCreateDir: {
      if (!body.done()) return rpc::Reply::error(ErrorCode::bad_argument);
      const auto verified = verify(request.target, rights::kWrite);
      if (!verified.ok()) return rpc::Reply::error(verified.code());
      if (verified.value() != 0) {
        return rpc::Reply::error(ErrorCode::bad_argument);
      }
      return cap_reply(create_dir());
    }
    case kDeleteDir: {
      if (!body.done()) return rpc::Reply::error(ErrorCode::bad_argument);
      return to_reply(delete_dir(request.target));
    }
    case kLookup: {
      auto name = body.str();
      if (!name.ok() || !body.done()) {
        return rpc::Reply::error(ErrorCode::bad_argument);
      }
      return cap_reply(lookup(request.target, name.value()));
    }
    case kEnter: {
      auto name = body.str();
      if (!name.ok()) return rpc::Reply::error(ErrorCode::bad_argument);
      auto target = Capability::decode(body);
      if (!target.ok() || !body.done()) {
        return rpc::Reply::error(ErrorCode::bad_argument);
      }
      return to_reply(enter(request.target, name.value(), target.value()));
    }
    case kReplace: {
      auto name = body.str();
      if (!name.ok()) return rpc::Reply::error(ErrorCode::bad_argument);
      auto target = Capability::decode(body);
      if (!target.ok() || !body.done()) {
        return rpc::Reply::error(ErrorCode::bad_argument);
      }
      return cap_reply(replace(request.target, name.value(), target.value()));
    }
    case kCasReplace: {
      auto name = body.str();
      if (!name.ok()) return rpc::Reply::error(ErrorCode::bad_argument);
      auto expected = Capability::decode(body);
      auto target = expected.ok() ? Capability::decode(body) : expected;
      if (!target.ok() || !body.done()) {
        return rpc::Reply::error(ErrorCode::bad_argument);
      }
      return cap_reply(cas_replace(request.target, name.value(),
                                   expected.value(), target.value()));
    }
    case kRemove: {
      auto name = body.str();
      if (!name.ok() || !body.done()) {
        return rpc::Reply::error(ErrorCode::bad_argument);
      }
      return to_reply(remove(request.target, name.value()));
    }
    case kList: {
      if (!body.done()) return rpc::Reply::error(ErrorCode::bad_argument);
      auto entries = list(request.target);
      if (!entries.ok()) return rpc::Reply::error(entries.code());
      Writer w;
      w.u32(static_cast<std::uint32_t>(entries.value().size()));
      for (const DirEntry& e : entries.value()) e.encode(w);
      return rpc::Reply::success(std::move(w).take());
    }
    case kCheckpoint: {
      if (!body.done()) return rpc::Reply::error(ErrorCode::bad_argument);
      const auto verified = verify(request.target, rights::kAdmin);
      if (!verified.ok()) return rpc::Reply::error(verified.code());
      if (verified.value() != 0) {
        return rpc::Reply::error(ErrorCode::bad_argument);
      }
      return cap_reply(checkpoint());
    }
    case kRestrict: {
      auto new_rights = body.u8();
      if (!new_rights.ok() || !body.done()) {
        return rpc::Reply::error(ErrorCode::bad_argument);
      }
      return cap_reply(restrict(request.target, new_rights.value()));
    }
    case kFetchMap: {
      if (!body.done()) return rpc::Reply::error(ErrorCode::bad_argument);
      const auto verified = verify(request.target, rights::kRead);
      if (!verified.ok()) return rpc::Reply::error(verified.code());
      if (verified.value() != 0) {
        return rpc::Reply::error(ErrorCode::bad_argument);
      }
      Writer w(8 + 4 + map_bytes().size());
      w.u64(map_epoch());
      w.blob(map_bytes());
      return rpc::Reply::success(std::move(w).take());
    }
    case kEpoch: {
      if (!body.done()) return rpc::Reply::error(ErrorCode::bad_argument);
      const auto verified = verify(request.target, rights::kRead);
      if (!verified.ok()) return rpc::Reply::error(verified.code());
      if (verified.value() != 0) {
        return rpc::Reply::error(ErrorCode::bad_argument);
      }
      Writer w(8);
      w.u64(map_epoch());
      return rpc::Reply::success(std::move(w).take());
    }
    case kInstallMap: {
      auto epoch = body.u64();
      auto map = epoch.ok() ? body.blob() : Result<ByteSpan>(epoch.error());
      if (!map.ok() || !body.done()) {
        return rpc::Reply::error(ErrorCode::bad_argument);
      }
      const auto verified = verify(request.target, rights::kAdmin);
      if (!verified.ok()) return rpc::Reply::error(verified.code());
      if (verified.value() != 0) {
        return rpc::Reply::error(ErrorCode::bad_argument);
      }
      return to_reply(install_map(epoch.value(), map.value()));
    }
    default:
      return rpc::Reply::error(ErrorCode::not_supported);
  }
}

}  // namespace bullet::dir
