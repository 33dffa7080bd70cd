/**
 * @file
 * Unit tests for the fault-injection layer: the plan grammar
 * (sites, actions, @N one-shot and %N periodic triggers, wildcard
 * expansion, every rejection class), hit/fired counters and their
 * determinism across reconfiguration, action names, the injected
 * syscall wrappers, and the extended status reply
 * (quarantine reasons, per-fingerprint attempts, fault counters)
 * that surfaces it all.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/fault.hh"
#include "serve/protocol.hh"
#include "sim/report.hh"

namespace nosq {
namespace serve {
namespace {

FaultInjector &
inj()
{
    return FaultInjector::global();
}

void
clearPlan()
{
    std::string error;
    ASSERT_TRUE(inj().configure("", error)) << error;
}

// --- plan grammar -----------------------------------------------------------

TEST(FaultPlan, EmptyPlanDisables)
{
    std::string error;
    ASSERT_TRUE(inj().configure("", error));
    EXPECT_FALSE(inj().enabled());
    EXPECT_EQ(inj().check(FaultSite::SockRead), FaultAction::None);
    // Disabled means not even counting.
    EXPECT_EQ(inj().hits(FaultSite::SockRead), 0u);
}

TEST(FaultPlan, ParsesEverySiteAndAction)
{
    std::string error;
    ASSERT_TRUE(inj().configure(
        "sock.connect:fail@1,sock.read:short@2,sock.write:eintr%3,"
        "store.write:fail@4,store.fsync:fail@5,store.rename:fail@6,"
        "worker.fork:fail@7,worker.job:wedge@8",
        error))
        << error;
    EXPECT_TRUE(inj().enabled());
    for (std::size_t i = 0; i < fault_site_count; ++i)
        EXPECT_TRUE(inj().planned(static_cast<FaultSite>(i)))
            << faultSiteName(static_cast<FaultSite>(i));
    clearPlan();
}

TEST(FaultPlan, ActionNamesRoundTrip)
{
    for (FaultAction action :
         {FaultAction::Fail, FaultAction::Short, FaultAction::Eintr,
          FaultAction::Wedge, FaultAction::Crash}) {
        FaultAction parsed = FaultAction::None;
        ASSERT_TRUE(parseFaultAction(faultActionName(action), parsed))
            << faultActionName(action);
        EXPECT_EQ(parsed, action);
    }
    FaultAction parsed = FaultAction::Fail;
    EXPECT_FALSE(parseFaultAction("none", parsed));
    EXPECT_FALSE(parseFaultAction("explode", parsed));
    EXPECT_EQ(parsed, FaultAction::Fail);
}

TEST(FaultPlan, WildcardExpandsByPrefix)
{
    std::string error;
    ASSERT_TRUE(inj().configure("sock.*:eintr%5", error)) << error;
    EXPECT_TRUE(inj().planned(FaultSite::SockConnect));
    EXPECT_TRUE(inj().planned(FaultSite::SockRead));
    EXPECT_TRUE(inj().planned(FaultSite::SockWrite));
    EXPECT_FALSE(inj().planned(FaultSite::StoreWrite));
    EXPECT_FALSE(inj().planned(FaultSite::WorkerJob));
    clearPlan();
}

TEST(FaultPlan, ToleratesWhitespaceAndEmptyRules)
{
    std::string error;
    ASSERT_TRUE(inj().configure(
        " store.write:fail@3 , , sock.read:eintr%5 ", error))
        << error;
    EXPECT_TRUE(inj().planned(FaultSite::StoreWrite));
    EXPECT_TRUE(inj().planned(FaultSite::SockRead));
    clearPlan();
}

TEST(FaultPlan, RejectsMalformedRules)
{
    const char *bad[] = {
        "store.write",            // no action
        "store.write:fail",       // no trigger
        "store.write:fail@",      // empty count
        "store.write:fail@0",     // zero count
        "store.write:fail@x",     // non-numeric count
        "store.write:explode@3",  // unknown action
        "store.writ:fail@3",      // unknown site
        "disk.*:fail@3",          // wildcard matching nothing
        ":fail@3",                // empty site
    };
    for (const char *plan : bad) {
        std::string error;
        EXPECT_FALSE(inj().configure(plan, error)) << plan;
        EXPECT_FALSE(error.empty()) << plan;
    }
    // A failed configure leaves the previous (empty) plan in force.
    EXPECT_FALSE(inj().enabled());
}

TEST(FaultPlan, BadPlanKeepsPreviousPlan)
{
    std::string error;
    ASSERT_TRUE(inj().configure("store.write:fail@3", error));
    EXPECT_FALSE(inj().configure("garbage", error));
    EXPECT_TRUE(inj().enabled());
    EXPECT_EQ(inj().plan(), "store.write:fail@3");
    clearPlan();
}

// --- triggers and counters --------------------------------------------------

TEST(FaultCounters, OneShotFiresOnExactlyTheNthHit)
{
    std::string error;
    ASSERT_TRUE(inj().configure("store.write:fail@3", error));
    EXPECT_EQ(inj().check(FaultSite::StoreWrite), FaultAction::None);
    EXPECT_EQ(inj().check(FaultSite::StoreWrite), FaultAction::None);
    EXPECT_EQ(inj().check(FaultSite::StoreWrite), FaultAction::Fail);
    EXPECT_EQ(inj().check(FaultSite::StoreWrite), FaultAction::None);
    EXPECT_EQ(inj().hits(FaultSite::StoreWrite), 4u);
    EXPECT_EQ(inj().fired(FaultSite::StoreWrite), 1u);
    clearPlan();
}

TEST(FaultCounters, PeriodicFiresEveryNthHit)
{
    std::string error;
    ASSERT_TRUE(inj().configure("sock.read:eintr%3", error));
    unsigned fired = 0;
    for (int i = 0; i < 9; ++i)
        if (inj().check(FaultSite::SockRead) == FaultAction::Eintr)
            ++fired;
    EXPECT_EQ(fired, 3u);
    EXPECT_EQ(inj().hits(FaultSite::SockRead), 9u);
    EXPECT_EQ(inj().fired(FaultSite::SockRead), 3u);
    // Unplanned sites count hits but never fire.
    EXPECT_EQ(inj().check(FaultSite::StoreWrite), FaultAction::None);
    EXPECT_EQ(inj().hits(FaultSite::StoreWrite), 1u);
    EXPECT_EQ(inj().fired(FaultSite::StoreWrite), 0u);
    clearPlan();
}

TEST(FaultCounters, ReconfigureResetsAndReplaysDeterministically)
{
    std::string error;
    std::vector<FaultAction> first, second;
    for (int round = 0; round < 2; ++round) {
        ASSERT_TRUE(inj().configure(
            "worker.job:wedge@2,worker.job:crash@4", error));
        auto &seq = round == 0 ? first : second;
        for (int i = 0; i < 6; ++i)
            seq.push_back(inj().check(FaultSite::WorkerJob));
    }
    EXPECT_EQ(first, second);
    EXPECT_EQ(first[1], FaultAction::Wedge);
    EXPECT_EQ(first[3], FaultAction::Crash);
    clearPlan();
}

TEST(FaultCounters, StatusJsonListsPlannedSitesOnly)
{
    std::string error;
    ASSERT_TRUE(
        inj().configure("store.write:fail@1,sock.read:eintr%2",
                        error));
    (void)inj().check(FaultSite::StoreWrite);
    const std::string json = inj().statusJson();
    JsonValue v;
    ASSERT_TRUE(parseJson(json, v, nullptr)) << json;
    ASSERT_EQ(v.kind, JsonValue::Kind::Object);
    ASSERT_NE(v.find("store.write"), nullptr);
    ASSERT_NE(v.find("sock.read"), nullptr);
    EXPECT_EQ(v.find("sock.write"), nullptr);
    const JsonValue *sw = v.find("store.write");
    ASSERT_NE(sw->find("hits"), nullptr);
    EXPECT_EQ(sw->find("hits")->asU64(), 1u);
    ASSERT_NE(sw->find("fired"), nullptr);
    EXPECT_EQ(sw->find("fired")->asU64(), 1u);
    clearPlan();
    EXPECT_EQ(inj().statusJson(), "{}");
}

// --- injected syscall wrappers ----------------------------------------------

TEST(FaultWrappers, EintrAndShortOnRealFds)
{
    std::string error;
    ASSERT_TRUE(inj().configure(
        "sock.read:eintr@1,sock.write:short@2", error));

    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    // Injected EINTR: no bytes consumed, errno set, caller retries.
    ASSERT_EQ(write(fds[1], "hello", 5), 5);
    char buf[8] = {};
    errno = 0;
    EXPECT_EQ(faultRead(fds[0], buf, sizeof(buf)), -1);
    EXPECT_EQ(errno, EINTR);
    EXPECT_EQ(faultRead(fds[0], buf, sizeof(buf)), 5);

    // Injected short write on the 2nd sock.write hit: exactly one
    // byte crosses, so callers must loop to completion.
    EXPECT_EQ(faultSend(fds[1], "abc", 3, 0), 3);
    EXPECT_EQ(faultSend(fds[1], "abc", 3, 0), 1);
    clearPlan();
    close(fds[0]);
    close(fds[1]);
}

TEST(FaultWrappers, FailActionsSetErrno)
{
    std::string error;
    ASSERT_TRUE(inj().configure(
        "sock.read:fail@1,sock.write:fail@1,worker.fork:fail@1",
        error));
    char buf[4];
    errno = 0;
    EXPECT_EQ(faultRead(-1, buf, sizeof(buf)), -1);
    EXPECT_EQ(errno, ECONNRESET);
    errno = 0;
    EXPECT_EQ(faultSend(-1, "x", 1, 0), -1);
    EXPECT_EQ(errno, EPIPE);
    errno = 0;
    EXPECT_EQ(faultFork(), -1);
    EXPECT_EQ(errno, EAGAIN);
    clearPlan();
}

// --- the status surface -----------------------------------------------------

TEST(StatusReply, CarriesHealthFields)
{
    ServerStatus status;
    status.workers = 4;
    status.alive = 3;
    status.executed = 17;
    status.failed = 2;
    status.quarantined = 1;
    status.overloaded = 5;
    status.store_append_failures = 1;
    status.max_pending = 64;
    status.draining = true;
    status.job_attempts = {{"00779c1e51f2fb7d", 2}};
    status.quarantine = {
        {"93acfc33a1f21b77",
         "quarantined after 3 attempt(s): worker wedged"}};
    status.faults_json =
        "{\"worker.job\":{\"hits\":3,\"fired\":3}}";

    const std::string line = statusReplyLine(status);
    ASSERT_EQ(line.back(), '\n');
    JsonValue v;
    ASSERT_TRUE(parseJson(line, v, nullptr)) << line;

    ASSERT_NE(v.find("executed"), nullptr);
    EXPECT_EQ(v.find("executed")->asU64(), 17u);
    ASSERT_NE(v.find("quarantined"), nullptr);
    EXPECT_EQ(v.find("quarantined")->asU64(), 1u);
    ASSERT_NE(v.find("overloaded"), nullptr);
    EXPECT_EQ(v.find("overloaded")->asU64(), 5u);
    ASSERT_NE(v.find("store_append_failures"), nullptr);
    EXPECT_EQ(v.find("store_append_failures")->asU64(), 1u);
    ASSERT_NE(v.find("max_pending"), nullptr);
    EXPECT_EQ(v.find("max_pending")->asU64(), 64u);
    const JsonValue *draining = v.find("draining");
    ASSERT_NE(draining, nullptr);
    ASSERT_EQ(draining->kind, JsonValue::Kind::Bool);
    EXPECT_TRUE(draining->boolean);

    const JsonValue *attempts = v.find("job_attempts");
    ASSERT_NE(attempts, nullptr);
    ASSERT_EQ(attempts->kind, JsonValue::Kind::Object);
    ASSERT_NE(attempts->find("00779c1e51f2fb7d"), nullptr);
    EXPECT_EQ(attempts->find("00779c1e51f2fb7d")->asU64(), 2u);

    const JsonValue *quarantine = v.find("quarantine");
    ASSERT_NE(quarantine, nullptr);
    const JsonValue *reason =
        quarantine->find("93acfc33a1f21b77");
    ASSERT_NE(reason, nullptr);
    ASSERT_EQ(reason->kind, JsonValue::Kind::String);
    EXPECT_NE(reason->string.find("worker wedged"),
              std::string::npos);

    const JsonValue *faults = v.find("faults");
    ASSERT_NE(faults, nullptr);
    ASSERT_NE(faults->find("worker.job"), nullptr);
}

TEST(StatusReply, FlatKeyShapeIsStable)
{
    // Scripts (and CI) grep the flat counters by exact text; pin
    // the serialized prefix so a rename or reorder cannot slip by.
    ServerStatus status;
    status.workers = 2;
    status.alive = 2;
    status.executed = 4;
    status.cache_hits = 4;
    const std::string line = statusReplyLine(status);
    EXPECT_NE(line.find("\"executed\":4"), std::string::npos);
    EXPECT_NE(line.find("\"cache_hits\":4"), std::string::npos);
    EXPECT_NE(line.find("\"draining\":false"), std::string::npos);
    EXPECT_NE(line.find("\"job_attempts\":{}"), std::string::npos);
    EXPECT_NE(line.find("\"quarantine\":{}"), std::string::npos);
    EXPECT_NE(line.find("\"faults\":{}"), std::string::npos);
}

} // anonymous namespace
} // namespace serve
} // namespace nosq
