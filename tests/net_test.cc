// Transport-layer tests: serialization, framing under arbitrary
// fragmentation, the virtual-time loop, the in-process network, and the
// real TCP loopback transport (DESIGN.md invariant 7).
#include <gtest/gtest.h>
#include <sys/socket.h>

#include "common/rng.h"
#include "net/event_loop.h"
#include "net/framing.h"
#include "net/inproc.h"
#include "net/serialize.h"
#include "net/tcp.h"

namespace roar::net {
namespace {

TEST(SerializeTest, RoundTripAllTypes) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(3.14159);
  w.ring_id(RingId::from_double(0.25));
  w.str("hello");
  w.bytes({1, 2, 3});

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_NEAR(r.ring_id().to_double(), 0.25, 1e-12);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerializeTest, TruncatedInputFailsSafely) {
  Writer w;
  w.u64(42);
  Bytes truncated(w.data().begin(), w.data().begin() + 3);
  Reader r(truncated);
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(SerializeTest, OversizedStringLengthFailsSafely) {
  Writer w;
  w.u32(1'000'000);  // claims a huge string, no payload
  Reader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(FramingTest, SingleFrameRoundTrip) {
  Bytes payload{10, 20, 30};
  FrameDecoder dec;
  dec.feed(frame(payload));
  auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
  EXPECT_FALSE(dec.next().has_value());
}

TEST(FramingTest, EmptyPayloadFrame) {
  FrameDecoder dec;
  dec.feed(frame({}));
  auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(FramingTest, SurvivesArbitraryFragmentation) {
  // Property: any byte-level fragmentation yields the same frame sequence.
  Rng rng(99);
  std::vector<Bytes> payloads;
  Bytes stream;
  for (int i = 0; i < 50; ++i) {
    Bytes p(rng.next_below(200));
    for (auto& b : p) b = static_cast<uint8_t>(rng.next_u64());
    payloads.push_back(p);
    Bytes f = frame(p);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameDecoder dec;
  size_t pos = 0, received = 0;
  while (pos < stream.size()) {
    size_t chunk = 1 + rng.next_below(37);
    chunk = std::min(chunk, stream.size() - pos);
    dec.feed(stream.data() + pos, chunk);
    pos += chunk;
    while (auto f = dec.next()) {
      ASSERT_LT(received, payloads.size());
      EXPECT_EQ(*f, payloads[received]);
      ++received;
    }
  }
  EXPECT_EQ(received, payloads.size());
}

TEST(FramingTest, RejectsOversizedHeader) {
  FrameDecoder dec;
  uint32_t huge = kMaxFrameBytes + 1;
  uint8_t hdr[4];
  memcpy(hdr, &huge, 4);
  dec.feed(hdr, 4);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.failed());
}

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(3.0, [&] { order.push_back(3); });
  loop.schedule_at(1.0, [&] { order.push_back(1); });
  loop.schedule_at(2.0, [&] { order.push_back(2); });
  loop.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.now(), 1e12);
}

TEST(EventLoopTest, EqualTimesRunInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  loop.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  uint64_t id = loop.schedule_at(1.0, [&] { ran = true; });
  loop.cancel(id);
  loop.run_all();
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, NestedSchedulingWithinRun) {
  EventLoop loop;
  std::vector<double> times;
  loop.schedule_at(1.0, [&] {
    times.push_back(loop.now());
    loop.schedule_after(0.5, [&] { times.push_back(loop.now()); });
  });
  loop.run_all();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(1.0, [&] { ++count; });
  loop.schedule_at(5.0, [&] { ++count; });
  loop.run_until(2.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(loop.now(), 2.0);
  loop.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(InProcTest, DeliversAfterLatency) {
  EventLoop loop;
  InProcNetwork net(loop, 0.001);
  double delivered_at = -1;
  net.bind(2, [&](Address from, Payload b) {
    EXPECT_EQ(from, 1u);
    EXPECT_EQ(b.to_bytes(), (Bytes{42}));
    delivered_at = loop.now();
  });
  net.send(1, 2, {42});
  loop.run_all();
  EXPECT_DOUBLE_EQ(delivered_at, 0.001);
}

TEST(InProcTest, UnboundDestinationDropsSilently) {
  EventLoop loop;
  InProcNetwork net(loop);
  net.send(1, 99, {1, 2, 3});
  loop.run_all();
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.bytes_sent(), 3u);
  EXPECT_EQ(net.bytes_dropped(), 3u);
}

TEST(InProcTest, LossInjection) {
  EventLoop loop;
  InProcNetwork net(loop, 1e-4, 3);
  net.set_loss_rate(0.5);
  int received = 0;
  net.bind(2, [&](Address, Payload) { ++received; });
  for (int i = 0; i < 1000; ++i) net.send(1, 2, {1});
  loop.run_all();
  EXPECT_GT(received, 350);
  EXPECT_LT(received, 650);
  // Delivered bytes are always sent minus dropped, whatever mix of loss
  // injection and dead destinations produced the drops.
  EXPECT_EQ(net.messages_sent(), 1000u);
  EXPECT_EQ(net.messages_dropped(), 1000u - received);
  EXPECT_EQ(net.bytes_sent() - net.bytes_dropped(),
            static_cast<uint64_t>(received));
}

TEST(TcpTest, EchoRoundTrip) {
  TcpReactor reactor;
  std::vector<Bytes> server_got;
  TcpListener listener(reactor, 0, [&](TcpConnection& conn) {
    conn.set_payload_handler([&](TcpConnection& c, Payload f) {
      Bytes copy = f.to_bytes();
      c.send(copy);  // echo
      server_got.push_back(std::move(copy));
    });
  });

  std::vector<Bytes> client_got;
  TcpConnection& client = reactor.connect(listener.port());
  client.set_payload_handler(
      [&](TcpConnection&, Payload f) { client_got.push_back(f.to_bytes()); });

  client.send({1, 2, 3});
  client.send({4, 5});
  ASSERT_TRUE(reactor.poll_until([&] { return client_got.size() == 2; }));
  EXPECT_EQ(server_got.size(), 2u);
  EXPECT_EQ(client_got[0], (Bytes{1, 2, 3}));
  EXPECT_EQ(client_got[1], (Bytes{4, 5}));
}

TEST(TcpTest, LargeFrameSurvives) {
  TcpReactor reactor;
  Bytes big(512 * 1024);
  Rng rng(4);
  for (auto& b : big) b = static_cast<uint8_t>(rng.next_u64());

  Bytes received;
  TcpListener listener(reactor, 0, [&](TcpConnection& conn) {
    conn.set_payload_handler(
        [&](TcpConnection&, Payload f) { received = f.to_bytes(); });
  });
  TcpConnection& client = reactor.connect(listener.port());
  client.send(big);
  ASSERT_TRUE(reactor.poll_until([&] { return !received.empty(); }));
  EXPECT_EQ(received, big);
}

TEST(TcpTest, ManyConcurrentClients) {
  TcpReactor reactor;
  int frames = 0;
  TcpListener listener(reactor, 0, [&](TcpConnection& conn) {
    conn.set_payload_handler([&](TcpConnection& c, Payload f) {
      ++frames;
      c.send(f.to_bytes());
    });
  });
  std::vector<TcpConnection*> clients;
  int replies = 0;
  for (int i = 0; i < 10; ++i) {
    TcpConnection& c = reactor.connect(listener.port());
    c.set_payload_handler([&](TcpConnection&, Payload) { ++replies; });
    clients.push_back(&c);
  }
  for (auto* c : clients) {
    for (int j = 0; j < 5; ++j) c->send({static_cast<uint8_t>(j)});
  }
  ASSERT_TRUE(reactor.poll_until([&] { return replies == 50; }));
  EXPECT_EQ(frames, 50);
}

TEST(TcpTest, FlushWithoutBackpressureChangesNoInterest) {
  TcpReactor reactor;
  TcpConnection* server = nullptr;
  int frames = 0;
  TcpListener listener(reactor, 0, [&](TcpConnection& conn) {
    server = &conn;
    conn.set_payload_handler([&](TcpConnection&, Payload) { ++frames; });
  });
  TcpConnection& client = reactor.connect(listener.port());
  ASSERT_TRUE(reactor.poll_until([&] { return server != nullptr; }));
  const uint64_t before = reactor.interest_changes();

  // Many flush rounds, each well inside the socket buffer: every writev
  // drains its queue, so the registered EPOLLIN mask never changes.
  for (int round = 0; round < 20; ++round) {
    for (int j = 0; j < 5; ++j) client.send({static_cast<uint8_t>(j)});
    reactor.poll(0);
  }
  ASSERT_TRUE(reactor.poll_until([&] { return frames == 100; }));
  EXPECT_GT(reactor.flush_syscalls(), 0u);
  EXPECT_EQ(reactor.interest_changes() - before, 0u);
}

TEST(TcpTest, BacklogSetsThenClearsEpollOutOnce) {
  TcpReactor reactor;
  TcpConnection* server = nullptr;
  size_t received = 0;
  TcpListener listener(reactor, 0, [&](TcpConnection& conn) {
    server = &conn;
    conn.set_payload_handler(
        [&](TcpConnection&, Payload f) { received += f.size(); });
  });
  TcpConnection& client = reactor.connect(listener.port());
  ASSERT_TRUE(reactor.poll_until([&] { return server != nullptr; }));
  // Small socket buffers, so the backlog below cannot fit in the kernel.
  int small = 16 * 1024;
  setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  setsockopt(server->fd(), SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  const uint64_t before = reactor.interest_changes();

  // Queue 8 MiB with no poll in between: the inline flushes hit EAGAIN
  // and add EPOLLOUT; polling then drains the queue and drops it.
  constexpr size_t kFrame = 64 * 1024, kFrames = 128;
  Bytes chunk(kFrame, 0x5a);
  for (size_t i = 0; i < kFrames; ++i) client.send(chunk);
  EXPECT_GT(client.pending_bytes(), 0u) << "backlog must outgrow the socket";
  EXPECT_EQ(reactor.interest_changes() - before, 1u) << "EPOLLOUT added";
  ASSERT_TRUE(
      reactor.poll_until([&] { return received == kFrame * kFrames; }));
  EXPECT_EQ(client.pending_bytes(), 0u);
  EXPECT_EQ(reactor.interest_changes() - before, 2u)
      << "EPOLLOUT added once and dropped once";
}

TEST(TcpTest, PeerCloseIsDetected) {
  TcpReactor reactor;
  bool server_saw_close = false;
  TcpListener listener(reactor, 0, [&](TcpConnection& conn) {
    conn.set_close_handler(
        [&](TcpConnection&) { server_saw_close = true; });
  });
  TcpConnection& client = reactor.connect(listener.port());
  reactor.poll_until([&] { return reactor.connections().size() >= 2; }, 1000);
  client.close();
  ASSERT_TRUE(reactor.poll_until([&] { return server_saw_close; }));
}

}  // namespace
}  // namespace roar::net
