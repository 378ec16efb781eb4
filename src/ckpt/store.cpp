#include "ckpt/store.hpp"

#include <algorithm>

#include "ckpt/incremental.hpp"
#include "net/network.hpp"

namespace starfish::ckpt {

void CheckpointStore::encode_for_store(Image& image) {
  if (compress_ == CompressMode::kOff) return;
  EncodedPayload coded =
      encode_payload(compress_, util::as_bytes_view(image.payload), engine_.obs());
  if (coded.codec == PayloadCodec::kRaw) return;  // coding did not pay off
  image.codec = coded.codec;
  image.file_bytes = image.file_bytes - image.payload.size() + coded.bytes.size();
  image.payload = std::move(coded.bytes);
}

void CheckpointStore::enable_replica_backend(net::Network& net, ReplicaOptions options) {
  if (replica_) return;
  replica_ = std::make_unique<ReplicaStore>(
      engine_, options, [&net](sim::HostId h) { return net.host(h)->alive(); });
  // Crash invalidation: the copies a dead host held are gone the instant it
  // dies, before any recovery logic runs.
  net.add_crash_hook([this](sim::HostId h) { replica_->on_host_crash(h); });
}

void CheckpointStore::put(sim::Host& host, const CkptKey& key, Image image) {
  // Code the payload first: the smaller file is what the disk write below
  // is charged for — the whole point of the compressed epoch pipeline.
  if (image.codec == PayloadCodec::kRaw) encode_for_store(image);
  const uint64_t bytes = image.file_bytes;
  const sim::Time start = engine_.now();
  if (image.kind == ImageKind::kNative) {
    engine_.sleep(kNativeDumpSetup);
    host.disk().write(bytes);
  } else {
    host.disk().write_buffered(bytes);
  }
  if (obs::Hub* hub = engine_.obs()) {
    hub->metrics.counter("ckpt.store.images_written").add(1);
    hub->metrics.counter("ckpt.store.bytes_written").add(bytes);
    hub->metrics.histogram("ckpt.store.put_ns").record(static_cast<uint64_t>(engine_.now() - start));
    if (hub->tracer.enabled()) {
      hub->tracer.complete(static_cast<uint64_t>(start),
                           static_cast<uint64_t>(engine_.now() - start), "ckpt",
                           "put " + key.app + "/r" + std::to_string(key.rank) + "/e" +
                               std::to_string(key.epoch),
                           host.id());
    }
  }
  bytes_written_ += bytes;
  images_[key] = std::move(image);
}

void CheckpointStore::put(sim::Host& host, const CkptKey& key, Image image,
                          const std::vector<sim::HostId>& holders) {
  if (backend_ == CkptBackend::kReplica && replica_ && !holders.empty()) {
    encode_for_store(image);  // ship the coded bytes, not the raw epoch
    replica_->put(host, key, std::move(image), holders);
    return;
  }
  put(host, key, std::move(image));
}

std::optional<Image> CheckpointStore::get(sim::Host& host, const CkptKey& key) {
  std::optional<Image> found = fetch_stored(host, key);
  if (!found || found->codec == PayloadCodec::kRaw) return found;
  auto raw = decode_payload(found->codec, util::as_bytes_view(found->payload),
                            kMaxIncrementalStateBytes, engine_.obs());
  if (!raw.ok()) return std::nullopt;  // corrupt: caller falls back, never aborts
  found->file_bytes = found->file_bytes - found->payload.size() + raw.value().size();
  found->payload = std::move(raw).take();
  found->codec = PayloadCodec::kRaw;
  return found;
}

std::optional<Image> CheckpointStore::fetch_stored(sim::Host& host, const CkptKey& key) {
  if (replica_) {
    if (auto found = replica_->get(host, key)) return found;
    if (backend_ == CkptBackend::kReplica) {
      // The replica tier was the write path but holds no surviving copy:
      // fall back to whatever the disk tier has (counted so degraded-mode
      // recovery is visible in the obs snapshot).
      if (obs::Hub* hub = engine_.obs()) {
        hub->metrics.counter("ckpt.replica.disk_fallbacks").add(1);
      }
    }
  }
  auto it = images_.find(key);
  if (it == images_.end()) return std::nullopt;
  std::optional<Image> found = it->second;
  const sim::Time start = engine_.now();
  host.disk().read(found->file_bytes);
  if (obs::Hub* hub = engine_.obs()) {
    hub->metrics.counter("ckpt.store.images_read").add(1);
    hub->metrics.counter("ckpt.store.bytes_read").add(found->file_bytes);
    hub->metrics.histogram("ckpt.store.read_ns")
        .record(static_cast<uint64_t>(engine_.now() - start));
    if (hub->tracer.enabled()) {
      hub->tracer.complete(static_cast<uint64_t>(start),
                           static_cast<uint64_t>(engine_.now() - start), "ckpt",
                           "get " + key.app + "/r" + std::to_string(key.rank) + "/e" +
                               std::to_string(key.epoch),
                           host.id());
    }
  }
  return found;
}

std::optional<uint64_t> CheckpointStore::file_bytes(const CkptKey& key) const {
  if (replica_) {
    if (auto b = replica_->file_bytes(key)) return b;
  }
  auto it = images_.find(key);
  if (it == images_.end()) return std::nullopt;
  return it->second.file_bytes;
}

void CheckpointStore::put_meta(const CkptKey& key, util::Bytes meta) {
  if (backend_ == CkptBackend::kReplica && replica_ && replica_->contains(key)) {
    replica_->put_meta(key, std::move(meta));
    return;
  }
  metas_[key] = std::move(meta);
}

std::optional<util::Bytes> CheckpointStore::checkpoint_meta(const CkptKey& key) const {
  if (replica_) {
    if (auto m = replica_->checkpoint_meta(key)) return m;
  }
  auto it = metas_.find(key);
  if (it == metas_.end()) return std::nullopt;
  return it->second;
}

void CheckpointStore::commit(const std::string& app, uint64_t epoch) {
  const sim::Time now = engine_.now();
  // Monotone: a stale commit (e.g. from a coordinator that was about to
  // die) never moves the recovery line backwards.
  auto it = committed_.find(app);
  if (it == committed_.end() || it->second < epoch) committed_[app] = epoch;
  // A duplicate commit comes later in virtual time; the first one is kept.
  commit_times_.try_emplace(std::make_pair(app, epoch), now);
  if (obs::Hub* hub = engine_.obs()) {
    hub->metrics.counter("ckpt.store.epochs_committed").add(1);
    if (hub->tracer.enabled()) {
      hub->tracer.instant(static_cast<uint64_t>(now), "ckpt",
                          "commit " + app + "/e" + std::to_string(epoch), 0);
    }
  }
}

void CheckpointStore::note_begin(const std::string& app, uint64_t epoch) {
  // The earliest begin wins, as in commit().
  begin_times_.try_emplace(std::make_pair(app, epoch), engine_.now());
}

void CheckpointStore::note_abort(const std::string& app) {
  const size_t dropped = std::erase_if(begin_times_, [&](const auto& entry) {
    return entry.first.first == app && !commit_times_.contains(entry.first);
  });
  if (dropped > 0) {
    if (obs::Hub* hub = engine_.obs()) {
      hub->metrics.counter("ckpt.store.epochs_aborted").add(dropped);
    }
  }
}

std::optional<sim::Duration> CheckpointStore::epoch_duration(const std::string& app,
                                                             uint64_t epoch) const {
  auto b = begin_times_.find({app, epoch});
  auto c = commit_times_.find({app, epoch});
  if (b == begin_times_.end() || c == commit_times_.end()) return std::nullopt;
  return c->second - b->second;
}

CheckpointStore::EpochStats CheckpointStore::epoch_stats(const std::string& app) const {
  EpochStats stats;
  if (auto it = duration_agg_.find(app); it != duration_agg_.end()) stats = it->second;
  for (const auto& [key, commit] : commit_times_) {
    if (key.first != app) continue;
    auto b = begin_times_.find(key);
    if (b == begin_times_.end()) continue;
    ++stats.epochs;
    stats.total += commit - b->second;
  }
  return stats;
}

std::optional<uint64_t> CheckpointStore::latest_committed(const std::string& app) const {
  auto it = committed_.find(app);
  if (it == committed_.end()) return std::nullopt;
  return it->second;
}

bool CheckpointStore::disk_chain_complete(const CkptKey& key) const {
  CkptKey at = key;
  for (;;) {
    auto it = images_.find(at);
    if (it == images_.end()) return false;
    const Image& img = it->second;
    // A stored-but-corrupt link is as unrecoverable as a missing one; the
    // structural verify is a fingerprint pass, no decode.
    if (!verify_payload(img.codec, util::as_bytes_view(img.payload)).ok()) return false;
    if (!img.incremental) return true;
    at.epoch = img.base_epoch;
  }
}

std::optional<uint64_t> CheckpointStore::latest_recoverable(const std::string& app,
                                                            uint32_t nprocs) const {
  auto committed = latest_committed(app);
  if (!committed) return std::nullopt;
  const bool replica_backend = backend_ == CkptBackend::kReplica && replica_ != nullptr;
  // Disk images survive anything, and with compression off their payloads
  // cannot have a broken lz frame either — latest_committed is the line.
  if (!replica_backend && compress_ == CompressMode::kOff) return committed;
  // Walk committed epochs newest-first; an epoch is recoverable when every
  // rank's restore chain survives *verifiably* in at least one tier (a
  // corrupted lz frame disqualifies its chain the same way a dead holder
  // does). Older epochs are usually gc'd, so the walk is short.
  for (uint64_t epoch = *committed; epoch >= 1; --epoch) {
    bool all = true;
    for (uint32_t rank = 0; rank < nprocs && all; ++rank) {
      const CkptKey key{app, rank, epoch};
      if (replica_backend && replica_->recoverable(key)) continue;
      all = disk_chain_complete(key);
    }
    if (all) {
      if (epoch != *committed) {
        if (obs::Hub* hub = engine_.obs()) {
          hub->metrics
              .counter(replica_backend ? "ckpt.replica.degraded_lines"
                                       : "ckpt.store.degraded_lines")
              .add(1);
        }
      }
      return epoch;
    }
  }
  if (obs::Hub* hub = engine_.obs()) {
    hub->metrics
        .counter(replica_backend ? "ckpt.replica.unrecoverable_lines"
                                 : "ckpt.store.unrecoverable_lines")
        .add(1);
  }
  return std::nullopt;
}

std::optional<uint64_t> CheckpointStore::latest_stored(const std::string& app,
                                                       uint32_t rank) const {
  std::optional<uint64_t> best;
  if (replica_) best = replica_->latest_stored(app, rank);
  for (const auto& [key, image] : images_) {
    if (key.app == app && key.rank == rank) {
      if (!best || key.epoch > *best) best = key.epoch;
    }
  }
  return best;
}

uint64_t CheckpointStore::content_hash() const {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  const auto mix_key = [&](const CkptKey& key) {
    mix(key.app.data(), key.app.size());
    mix(&key.rank, sizeof key.rank);
    mix(&key.epoch, sizeof key.epoch);
  };
  for (const auto& [key, image] : images_) {
    mix_key(key);
    mix(&image.kind, sizeof image.kind);
    mix(&image.repr_code, sizeof image.repr_code);
    // Hash the *logical* image — decoded payload, pre-codec file size — so
    // the hash is invariant across compression modes: the differential
    // suite compares stores coded off and lz byte-for-byte. A payload that
    // no longer decodes hashes as stored (a corrupted store must not hash
    // equal to a clean one).
    uint64_t file_bytes = image.file_bytes;
    const util::Bytes* payload = &image.payload;
    util::Bytes raw;
    if (image.codec != PayloadCodec::kRaw) {
      auto decoded = decode_payload(image.codec, util::as_bytes_view(image.payload),
                                    kMaxIncrementalStateBytes, nullptr);
      if (decoded.ok()) {
        raw = std::move(decoded).take();
        file_bytes = file_bytes - image.payload.size() + raw.size();
        payload = &raw;
      }
    }
    mix(&file_bytes, sizeof file_bytes);
    mix(payload->data(), payload->size());
  }
  for (const auto& [key, meta] : metas_) {
    mix_key(key);
    mix(meta.data(), meta.size());
  }
  for (const auto& [app, epoch] : committed_) {
    mix(app.data(), app.size());
    mix(&epoch, sizeof epoch);
  }
  return h;
}

size_t CheckpointStore::gc(const std::string& app, uint64_t keep_epoch) {
  std::erase_if(metas_, [&](const auto& entry) {
    return entry.first.app == app && entry.first.epoch < keep_epoch;
  });
  size_t removed = std::erase_if(images_, [&](const auto& entry) {
    return entry.first.app == app && entry.first.epoch < keep_epoch;
  });
  // Fold completed epoch timings below the line into the aggregate and
  // drop their per-epoch entries; a begin below the line with no commit
  // was aborted and can never complete, so it is dropped too. Without
  // this the instrumentation maps grow forever across long chaos runs.
  for (auto it = commit_times_.begin(); it != commit_times_.end();) {
    if (it->first.first != app || it->first.second >= keep_epoch) {
      ++it;
      continue;
    }
    if (auto b = begin_times_.find(it->first); b != begin_times_.end()) {
      EpochStats& agg = duration_agg_[app];
      ++agg.epochs;
      agg.total += it->second - b->second;
      begin_times_.erase(b);
    }
    it = commit_times_.erase(it);
  }
  std::erase_if(begin_times_, [&](const auto& entry) {
    return entry.first.first == app && entry.first.second < keep_epoch;
  });
  if (replica_) removed += replica_->gc(app, keep_epoch);
  return removed;
}

bool CheckpointStore::corrupt_payload(const CkptKey& key, size_t offset, bool truncate) {
  if (replica_ && replica_->corrupt_payload(key, offset, truncate)) return true;
  auto it = images_.find(key);
  if (it == images_.end() || it->second.payload.empty()) return false;
  util::Bytes& payload = it->second.payload;
  if (truncate) {
    payload.resize(std::min(offset, payload.size() - 1));
  } else {
    payload[offset % payload.size()] ^= std::byte{0x40};
  }
  return true;
}

}  // namespace starfish::ckpt
