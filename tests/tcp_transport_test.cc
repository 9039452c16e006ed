// TcpTransport unit tests: the Transport contract (bind/unbind/send by
// Address) over real loopback sockets, the address registry, connection
// caching + reconnect, one shared connection per peer pair, drop
// accounting, and the wall-clock timer facade.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <thread>

#include "net/tcp_transport.h"

namespace roar::net {
namespace {

TEST(WallClockTest, TimersFireInOrderAndCancelWorks) {
  WallClock clock;
  std::vector<int> order;
  clock.schedule_after(0.0, [&] { order.push_back(1); });
  uint64_t cancelled = clock.schedule_after(0.0, [&] { order.push_back(2); });
  clock.schedule_after(0.0, [&] { order.push_back(3); });
  clock.cancel(cancelled);
  EXPECT_EQ(clock.fire_due(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(clock.pending(), 0u);
}

TEST(WallClockTest, FutureTimerNotDueYet) {
  WallClock clock;
  bool ran = false;
  clock.schedule_after(30.0, [&] { ran = true; });
  EXPECT_EQ(clock.fire_due(), 0u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(clock.next_timeout_ms(100), 100);
  EXPECT_EQ(clock.pending(), 1u);
}

TEST(WallClockTest, DueTimerBoundsPollTimeout) {
  WallClock clock;
  clock.schedule_after(0.0, [] {});
  EXPECT_EQ(clock.next_timeout_ms(100), 0);
}

TEST(TcpTransportTest, SendByAddressAcrossTransports) {
  TcpDriver driver;
  TcpTransport a(driver), b(driver);

  std::vector<std::pair<Address, Bytes>> got_b;
  b.bind(20, [&](Address from, Payload payload) {
    got_b.emplace_back(from, payload.to_bytes());
  });
  Bytes reply_seen;
  a.bind(10,
         [&](Address, Payload payload) { reply_seen = payload.to_bytes(); });

  a.send(10, 20, {1, 2, 3});
  ASSERT_TRUE(driver.run_until([&] { return !got_b.empty(); }));
  EXPECT_EQ(got_b[0].first, 10u);
  EXPECT_EQ(got_b[0].second, (Bytes{1, 2, 3}));

  // Reply flows back by address, over b's own cached connection.
  b.send(20, 10, {9});
  ASSERT_TRUE(driver.run_until([&] { return !reply_seen.empty(); }));
  EXPECT_EQ(reply_seen, (Bytes{9}));

  EXPECT_EQ(a.messages_sent(), 1u);
  EXPECT_EQ(a.bytes_sent(), 3u);
  EXPECT_EQ(b.messages_sent(), 1u);
  EXPECT_EQ(a.messages_dropped() + b.messages_dropped(), 0u);
  EXPECT_GT(a.wire_bytes_sent(), a.bytes_sent()) << "envelope overhead";
}

TEST(TcpTransportTest, TwoAddressesShareOneListener) {
  TcpDriver driver;
  TcpTransport control(driver), peer(driver);
  int frontend_got = 0, membership_got = 0;
  control.bind(1, [&](Address, Payload) { ++frontend_got; });
  control.bind(0, [&](Address, Payload) { ++membership_got; });
  peer.bind(100, [](Address, Payload) {});

  peer.send(100, 1, {1});
  peer.send(100, 0, {2});
  ASSERT_TRUE(
      driver.run_until([&] { return frontend_got && membership_got; }));
  EXPECT_EQ(frontend_got, 1);
  EXPECT_EQ(membership_got, 1);
}

TEST(TcpTransportTest, UnroutedAddressCountsAsDropped) {
  TcpDriver driver;
  TcpTransport a(driver);
  a.send(10, 77, {1, 2, 3, 4});
  EXPECT_EQ(a.messages_sent(), 1u);
  EXPECT_EQ(a.messages_dropped(), 1u);
  EXPECT_EQ(a.bytes_dropped(), 4u);
}

TEST(TcpTransportTest, UnboundDestinationDropsAtReceiver) {
  TcpDriver driver;
  TcpTransport a(driver), b(driver);
  b.bind(20, [](Address, Payload) {});
  b.unbind(20);  // crashed process: route stays up, handler gone

  a.send(10, 20, {1, 2, 3});
  driver.run_until([&] { return b.messages_dropped() > 0; }, 2.0);
  EXPECT_EQ(b.messages_dropped(), 1u);
  EXPECT_EQ(b.bytes_dropped(), 3u);
  EXPECT_EQ(a.messages_dropped(), 0u);
}

TEST(TcpTransportTest, ReconnectsAfterConnectionLoss) {
  TcpDriver driver;
  TcpTransport a(driver), b(driver);
  int got = 0;
  b.bind(20, [&](Address, Payload) { ++got; });

  a.send(10, 20, {1});
  ASSERT_TRUE(driver.run_until([&] { return got == 1; }));

  // Kill every established connection under the transports' feet.
  std::vector<TcpConnection*> conns;
  for (const auto& [id, conn] : driver.reactor().connections()) {
    conns.push_back(conn.get());
  }
  for (auto* c : conns) c->close();
  driver.poll(0);  // reap + run close handlers

  a.send(10, 20, {2});
  ASSERT_TRUE(driver.run_until([&] { return got == 2; }))
      << "send after connection loss must transparently reconnect";
  EXPECT_EQ(a.reconnects(), 1u) << "cache miss after eviction is a reconnect";
}

// The connection end whose local port is `port`: the acceptor's side of a
// connection made to that listener.
TcpConnection* accepted_end(TcpReactor& reactor, uint16_t port) {
  for (const auto& [id, conn] : reactor.connections()) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    auto* sa = reinterpret_cast<sockaddr*>(&addr);
    if (conn->closed() || getsockname(conn->fd(), sa, &len) != 0) continue;
    if (ntohs(addr.sin_port) == port) return conn.get();
  }
  return nullptr;
}

Bytes seq_payload(uint16_t i) {
  return {static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8)};
}
uint16_t seq_of(const Payload& p) {
  Bytes b = p.to_bytes();
  return static_cast<uint16_t>(b[0] | (b[1] << 8));
}

TEST(TcpTransportTest, RepliesRideTheRequestersConnection) {
  TcpDriver driver;
  TcpTransport a(driver), b(driver);
  std::vector<uint16_t> got_a, got_b;
  b.bind(20, [&](Address from, Payload payload) {
    got_b.push_back(seq_of(payload));
    b.send(20, from, payload.to_bytes());  // reply
  });
  a.bind(10, [&](Address, Payload payload) {
    got_a.push_back(seq_of(payload));
  });

  constexpr uint16_t kFrames = 200;
  for (uint16_t i = 0; i < kFrames; ++i) a.send(10, 20, seq_payload(i));
  ASSERT_TRUE(driver.run_until([&] { return got_a.size() == kFrames; }));
  std::vector<uint16_t> want(kFrames);
  for (uint16_t i = 0; i < kFrames; ++i) want[i] = i;
  EXPECT_EQ(got_b, want) << "requests arrive in order";
  EXPECT_EQ(got_a, want) << "replies arrive in order";
  // One TCP connection: a's connected end and b's accepted end.
  EXPECT_EQ(driver.reactor().connections().size(), 2u);
  EXPECT_EQ(a.reconnects() + b.reconnects(), 0u);
}

TEST(TcpTransportTest, ClosedAdoptedConnectionReconnectsOnReply) {
  TcpDriver driver;
  TcpTransport a(driver), b(driver);
  int got_a = 0, got_b = 0;
  a.bind(10, [&](Address, Payload) { ++got_a; });
  b.bind(20, [&](Address, Payload) { ++got_b; });

  a.send(10, 20, {1});
  ASSERT_TRUE(driver.run_until([&] { return got_b == 1; }));
  b.send(20, 10, {2});
  ASSERT_TRUE(driver.run_until([&] { return got_a == 1; }));
  ASSERT_EQ(driver.reactor().connections().size(), 2u);
  EXPECT_EQ(b.reconnects(), 0u) << "the reply rode a's connection";

  TcpConnection* adopted = accepted_end(driver.reactor(), b.port());
  ASSERT_NE(adopted, nullptr);
  adopted->close();
  driver.poll(0);

  b.send(20, 10, {3});
  ASSERT_TRUE(driver.run_until([&] { return got_a == 2; }))
      << "a reply after the adopted connection closed must reconnect";
  EXPECT_EQ(b.reconnects(), 1u);
  EXPECT_EQ(a.reconnects(), 0u);
}

TEST(TcpTransportTest, BothSendBeforePollingShareOneConnection) {
  TcpDriver driver;
  TcpTransport a(driver), b(driver);
  std::vector<uint16_t> got_a, got_b;
  a.bind(10, [&](Address, Payload p) { got_a.push_back(seq_of(p)); });
  b.bind(20, [&](Address, Payload p) { got_b.push_back(seq_of(p)); });

  // Neither side polls before both have sent: b's first send finds a's
  // connection waiting in its listener, hello unread, and answers on it.
  constexpr uint16_t kFrames = 50;
  for (uint16_t i = 0; i < kFrames; ++i) {
    a.send(10, 20, seq_payload(i));
    b.send(20, 10, seq_payload(i));
  }
  ASSERT_TRUE(driver.run_until(
      [&] { return got_a.size() == kFrames && got_b.size() == kFrames; }));
  std::vector<uint16_t> want(kFrames);
  for (uint16_t i = 0; i < kFrames; ++i) want[i] = i;
  EXPECT_EQ(got_a, want);
  EXPECT_EQ(got_b, want);
  EXPECT_EQ(driver.reactor().connections().size(), 2u);
  EXPECT_EQ(a.reconnects() + b.reconnects(), 0u);
}

TEST(TcpTransportTest, OnlyAHelloNamesAConnection) {
  TcpDriver driver;
  TcpTransport a(driver), b(driver);
  int got_a = 0, got_b = 0, got_raw = 0;
  a.bind(10, [&](Address, Payload) { ++got_a; });
  b.bind(20, [&](Address, Payload) { ++got_b; });
  TcpConnection& raw = driver.reactor().connect(b.port());
  raw.set_payload_handler([&](TcpConnection&, Payload) { ++got_raw; });
  auto envelope = [](uint32_t from, uint32_t to) {
    Bytes e;
    for (uint32_t v : {from, to}) {
      for (int k = 0; k < 4; ++k) e.push_back(static_cast<uint8_t>(v >> 8 * k));
    }
    return e;
  };

  // A data frame claiming a's address does not make `raw` b's route to a.
  raw.send(envelope(10, 20));
  ASSERT_TRUE(driver.run_until([&] { return got_b == 1; }));
  b.send(20, 10, {1});
  ASSERT_TRUE(driver.run_until([&] { return got_a == 1; }));

  // Nor does a hello naming a's port while b holds a live connection there.
  raw.send(envelope(a.port(), TcpTransport::kHelloAddr));
  for (int i = 0; i < 5; ++i) driver.poll(1);
  b.send(20, 10, {2});
  ASSERT_TRUE(driver.run_until([&] { return got_a == 2; }));
  EXPECT_EQ(got_raw, 0);
  EXPECT_EQ(b.messages_dropped(), 0u) << "a hello is not a dropped message";
}

TEST(TcpTransportTest, HellosAreNotCountedAsMessages) {
  TcpDriver driver;
  TcpTransport a(driver), b(driver);
  int got_a = 0, got_b = 0;
  a.bind(10, [&](Address, Payload) { ++got_a; });
  b.bind(20, [&](Address, Payload) { ++got_b; });

  a.send(10, 20, {1, 2, 3});
  ASSERT_TRUE(driver.run_until([&] { return got_b == 1; }));
  b.send(20, 10, {4});
  ASSERT_TRUE(driver.run_until([&] { return got_a == 1; }));

  EXPECT_EQ(a.messages_sent(), 1u);
  EXPECT_EQ(a.bytes_sent(), 3u);
  EXPECT_EQ(b.messages_sent(), 1u);
  EXPECT_EQ(b.bytes_sent(), 1u);
  EXPECT_EQ(a.messages_dropped() + b.messages_dropped(), 0u);
  EXPECT_EQ(a.bytes_dropped() + b.bytes_dropped(), 0u);
  // On the wire: a's frame and hello ([len][from][to], 12 bytes each),
  // b's reply frame and no hello of its own.
  EXPECT_EQ(a.wire_bytes_sent(), (12u + 3u) + 12u);
  EXPECT_EQ(b.wire_bytes_sent(), 12u + 1u);
  EXPECT_THROW(a.bind(TcpTransport::kHelloAddr, [](Address, Payload) {}),
               std::invalid_argument);
}

TEST(TcpTransportTest, DestroyedEndpointBlackHolesFrames) {
  TcpDriver driver;
  TcpTransport a(driver);
  auto b = std::make_unique<TcpTransport>(driver);
  int got = 0;
  b->bind(20, [&](Address, Payload) { ++got; });
  a.send(10, 20, {1});
  ASSERT_TRUE(driver.run_until([&] { return got == 1; }));

  // "Process crash": destroying the transport must tear down its accepted
  // connections too — their handlers capture the dead object.
  b.reset();
  driver.poll(0);
  a.send(10, 20, {2});
  for (int i = 0; i < 20; ++i) driver.poll(1);
  EXPECT_EQ(got, 1) << "no frame may reach the destroyed endpoint";
}

TEST(TcpTransportTest, ManyMessagesManyEndpoints) {
  TcpDriver driver;
  constexpr int kPeers = 8, kEach = 50;
  TcpTransport hub(driver);
  int hub_got = 0;
  hub.bind(1, [&](Address, Payload) { ++hub_got; });

  std::vector<std::unique_ptr<TcpTransport>> peers;
  for (int i = 0; i < kPeers; ++i) {
    auto t = std::make_unique<TcpTransport>(driver);
    t->bind(100 + i, [](Address, Payload) {});
    peers.push_back(std::move(t));
  }
  for (int j = 0; j < kEach; ++j) {
    for (int i = 0; i < kPeers; ++i) {
      peers[i]->send(100 + i, 1, {static_cast<uint8_t>(j)});
    }
  }
  ASSERT_TRUE(
      driver.run_until([&] { return hub_got == kPeers * kEach; }, 10.0));
  // One cached connection per peer, not per message.
  EXPECT_LE(driver.reactor().connections().size(),
            2u * (kPeers + 1));
}

TEST(TcpTransportTest, ShardedDriverCrossShardTraffic) {
  // Endpoints pinned to different reactor shards talk over real sockets;
  // shard 1 runs its own loop thread, shard 0 is driven by this thread.
  TcpDriver driver(2);
  TcpTransport a(driver, 0), b(driver, 1);
  std::atomic<int> b_got{0};
  std::atomic<int> a_got{0};
  b.bind(20, [&](Address from, Payload payload) {
    // Echo so the test exercises both directions from the shard thread.
    Bytes back = payload.to_bytes();
    b_got.fetch_add(1);
    (void)from;
    b.send(20, 10, std::move(back));
  });
  a.bind(10, [&](Address, Payload) { a_got.fetch_add(1); });
  driver.start();

  constexpr int kMsgs = 64;
  for (int i = 0; i < kMsgs; ++i) {
    a.send(10, 20, {static_cast<uint8_t>(i), 7});
  }
  ASSERT_TRUE(driver.run_until([&] { return a_got.load() == kMsgs; }, 10.0));
  EXPECT_EQ(b_got.load(), kMsgs);
  driver.stop();
}

TEST(TcpTransportTest, RunOnExecutesOnShardThreadAndInline) {
  TcpDriver driver(2);
  driver.start();
  std::thread::id main_id = std::this_thread::get_id();
  std::thread::id shard1_id{};
  driver.run_on(1, [&] { shard1_id = std::this_thread::get_id(); });
  EXPECT_NE(shard1_id, main_id) << "shard 1 work must run on its loop thread";
  std::thread::id shard0_id{};
  driver.run_on(0, [&] { shard0_id = std::this_thread::get_id(); });
  EXPECT_EQ(shard0_id, main_id) << "shard 0 is caller-driven";
  driver.stop();
  // After stop() the shards are plain data again: run_on is inline.
  std::thread::id after_id{};
  driver.run_on(1, [&] { after_id = std::this_thread::get_id(); });
  EXPECT_EQ(after_id, main_id);
}

TEST(MailboxTest, PushDrainAcrossThreadsCountsOverflow) {
  Mailbox mail(4);  // tiny ring: forces overflow
  std::atomic<int> ran{0};
  constexpr int kPer = 100;
  std::thread producer([&] {
    for (int i = 0; i < kPer; ++i) {
      mail.push([&ran] { ran.fetch_add(1); });
    }
  });
  for (int i = 0; i < kPer; ++i) {
    mail.push([&ran] { ran.fetch_add(1); });
  }
  producer.join();
  EXPECT_EQ(mail.pending(), 2u * kPer);
  std::vector<std::function<void()>> batch;
  EXPECT_EQ(mail.drain(batch), 2u * kPer);
  for (auto& fn : batch) fn();
  EXPECT_EQ(ran.load(), 2 * kPer);
  EXPECT_EQ(mail.pending(), 0u);
  EXPECT_GT(mail.ring_full_events(), 0u) << "4-slot ring must have spilled";
}

}  // namespace
}  // namespace roar::net
