#include "served.h"

namespace perfbench {

std::vector<std::uint64_t> IdsOf(const std::vector<spot::TopKEntry>& top) {
  std::vector<std::uint64_t> ids;
  ids.reserve(top.size());
  for (const spot::TopKEntry& e : top) ids.push_back(e.point_id);
  return ids;
}

bool StartServed(const Args& args, const spot::SpotConfig& cfg,
                 const std::vector<SessionInputs>& in, Tracer* tracer,
                 ServedSessions* served, std::string* error) {
  {
    Tracer::Scope span(tracer, "net.ServerStart", "net");
    // Round-robin accept: SO_REUSEPORT leaves placement to the kernel's
    // 4-tuple hash, which puts both connections on one reactor in about
    // half the runs.
    if (!served->server.Start(args.serverd,
                              {"--port", "0", "--reactors", "2",
                               "--no-reuseport", "--log-level", "warning"},
                              error)) {
      return false;
    }
  }
  for (std::size_t c = 0; c < kServedConns; ++c) {
    Tracer::Scope span(tracer, "net.CreateSession", "net");
    spot::net::SpotClient& client = served->clients[c];
    if (!client.Connect("127.0.0.1", served->server.port()) ||
        !client.CreateSession(served->ids[c], cfg, in[c].training)) {
      *error = "session set-up: " + client.last_error();
      return false;
    }
  }
  return true;
}

void DriveServed(ServedSessions* served, const std::vector<SessionInputs>& in,
                 const spot::SpotConfig& cfg,
                 const std::function<bool(const ServedLog&)>& keep_going,
                 Tracer* tracer, RunResult* result, ServedLog* log) {
  const auto rpc = [result, log](const spot::net::RpcStatus& status,
                                 const spot::net::SpotClient& client,
                                 const char* what) {
    ++result->attempted;
    if (!status) {
      ++result->failed;
      result->checks.Expect(false,
                            std::string(what) + ": " + client.last_error());
      log->broken = true;
    }
    return static_cast<bool>(status);
  };
  while (!log->broken && keep_going(*log)) {
    const std::uint64_t b = log->batches++;
    std::vector<spot::DataPoint> batch[kServedConns];
    for (std::size_t c = 0; c < kServedConns; ++c) batch[c] = BatchAt(in[c], b);
    double sent[kServedConns];
    const double round_start = WallNow();
    // One batch in flight per connection: both ingests go out before
    // either flush is awaited, so the two reactors work concurrently.
    for (std::size_t c = 0; c < kServedConns; ++c) {
      sent[c] = WallNow();
      Tracer::Scope span(tracer, "net.Ingest", "net");
      rpc(served->clients[c].Ingest(served->ids[c], batch[c]),
          served->clients[c], "ingest");
    }
    for (std::size_t c = 0; c < kServedConns && !log->broken; ++c) {
      std::vector<spot::SpotResult> verdicts;
      {
        Tracer::Scope span(tracer, "net.Flush", "net");
        rpc(served->clients[c].Flush(served->ids[c], &verdicts),
            served->clients[c], "flush");
      }
      log->phase.Sample(WallNow() - sent[c]);
      CheckVerdicts(verdicts, batch[c].size(), cfg, &result->checks);
    }
    for (std::size_t c = 0; c < kServedConns && !log->broken; ++c) {
      spot::net::SpotClient& client = served->clients[c];
      const auto top_k = [&](std::uint32_t k) {
        std::vector<spot::TopKEntry> top;
        Tracer::Scope span(tracer, "net.TopK", "net");
        rpc(client.TopK(served->ids[c], k, &top), client, "top-k");
        return top;
      };
      if (QueryDue(b)) top_k(kQueryK);
      if (FeedbackDue(b) && !log->broken) {
        const std::vector<std::uint64_t> ids = IdsOf(top_k(kFeedbackK));
        Tracer::Scope span(tracer, "net.Feedback", "net");
        rpc(client.Feedback(served->ids[c], ids, {batch[c].front().values}),
            client, "feedback");
      }
    }
    log->phase.Work(kServedConns * kBatch, WallNow() - round_start, 0.0);
  }
}

bool StopServed(ServedSessions* served, double* cpu_s) {
  for (spot::net::SpotClient& client : served->clients) client.Disconnect();
  return served->server.Stop(cpu_s);
}

}  // namespace perfbench
