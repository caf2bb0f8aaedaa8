#include "src/core/cache_evict.h"

#include <memory>
#include <string>

#include "src/sim/discipline.h"
#include "src/sim/sync.h"

namespace switchfs::core {

sim::Task<void> EvictSwitchCacheEntry(ServerContext& ctx, VolPtr v,
                                      psw::Fingerprint fp,
                                      EvictLockWitness witness) {
  if (!ctx.config->switch_cache || v->cached_fps.count(fp) == 0) {
    co_return;
  }
#if SFS_DISCIPLINE_CHECKS
  if (witness == EvictLockWitness::kChain) {
    sim::DisciplineChecker::CheckEvictAllowed(
        co_await sim::discipline::CurrentChainId{},
        "fp=" + std::to_string(fp));
  }
#else
  (void)witness;
#endif
  const uint64_t token = v->op_token_counter++;

  // Self-addressed evict: the switch bumps the set version and drops the
  // entry in flight, then the packet reaches our raw handler as the ack.
  net::Packet ev;
  ev.dst = ctx.node_id();
  ev.mc.op = net::McOp::kEvict;
  ev.mc.fingerprint = fp;
  ev.mc.token = token;

  const bool acked =
      co_await SendUntilAcked(ctx, v, token, std::move(ev),
                              ctx.config->cache_evict_timeout,
                              ctx.config->cache_evict_max_attempts) != 0;
  if (v->dead) co_return;
  if (acked) {
    ctx.stats->cache_evicts++;
    v->cached_fps.erase(fp);
  } else {
    // Budget exhausted: the write proceeds. Either the evict executed and
    // only the acks were lost, or the switch is down and its cache state is
    // gone with it (Reset on recovery). Keep fp in cached_fps so the next
    // write retries the evict.
    ctx.stats->cache_evict_exhausted++;
  }
}

}  // namespace switchfs::core
