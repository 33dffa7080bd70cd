#include "serve/fault.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include <sys/socket.h>
#include <unistd.h>

namespace nosq {
namespace serve {

namespace {

const char *const site_names[fault_site_count] = {
    "sock.connect", "sock.read",    "sock.write",
    "store.write",  "store.fsync",  "store.rename",
    "worker.fork",  "worker.job",
};

bool
parseCount(const std::string &tok, std::uint64_t &value)
{
    if (tok.empty())
        return false;
    value = 0;
    for (char c : tok) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
        if (value > (1ull << 32))
            return false;
    }
    return value > 0;
}

const char *const action_names[] = {
    "none", "fail", "short", "eintr", "wedge", "crash",
};

} // namespace

const char *
faultActionName(FaultAction action)
{
    return action_names[static_cast<std::size_t>(action)];
}

bool
parseFaultAction(const std::string &name, FaultAction &action)
{
    for (std::size_t i = 1; i < std::size(action_names); ++i) {
        if (name == action_names[i]) {
            action = static_cast<FaultAction>(i);
            return true;
        }
    }
    return false;
}

const char *
faultSiteName(FaultSite site)
{
    auto idx = static_cast<std::size_t>(site);
    return idx < fault_site_count ? site_names[idx] : "?";
}

FaultInjector &
FaultInjector::global()
{
    static FaultInjector instance;
    return instance;
}

bool
FaultInjector::configure(const std::string &plan, std::string &error)
{
    std::vector<Rule> rules;
    std::size_t pos = 0;
    while (pos < plan.size()) {
        std::size_t end = plan.find(',', pos);
        if (end == std::string::npos)
            end = plan.size();
        std::string ruleText = plan.substr(pos, end - pos);
        pos = end + 1;
        // Tolerate stray whitespace around rules.
        while (!ruleText.empty() && (ruleText.front() == ' ' ||
                                     ruleText.front() == '\t'))
            ruleText.erase(ruleText.begin());
        while (!ruleText.empty() &&
               (ruleText.back() == ' ' || ruleText.back() == '\t'))
            ruleText.pop_back();
        if (ruleText.empty())
            continue;

        std::size_t colon = ruleText.find(':');
        if (colon == std::string::npos) {
            error = "fault rule '" + ruleText +
                    "': expected site:action@N or site:action%N";
            return false;
        }
        std::string siteTok = ruleText.substr(0, colon);
        std::string rest = ruleText.substr(colon + 1);

        std::size_t trig = rest.find_first_of("@%");
        if (trig == std::string::npos) {
            error = "fault rule '" + ruleText +
                    "': missing '@N' or '%N' trigger";
            return false;
        }
        Rule proto;
        if (!parseFaultAction(rest.substr(0, trig), proto.action)) {
            error = "fault rule '" + ruleText +
                    "': unknown action '" + rest.substr(0, trig) +
                    "' (fail|short|eintr|wedge|crash)";
            return false;
        }
        std::uint64_t n = 0;
        if (!parseCount(rest.substr(trig + 1), n)) {
            error = "fault rule '" + ruleText +
                    "': trigger count must be a positive integer";
            return false;
        }
        if (rest[trig] == '@')
            proto.at = n;
        else
            proto.period = n;

        bool matched = false;
        if (!siteTok.empty() && siteTok.back() == '*') {
            std::string prefix = siteTok.substr(0, siteTok.size() - 1);
            for (std::size_t i = 0; i < fault_site_count; ++i) {
                if (std::strncmp(site_names[i], prefix.c_str(),
                                 prefix.size()) != 0)
                    continue;
                Rule rule = proto;
                rule.site = static_cast<FaultSite>(i);
                rules.push_back(rule);
                matched = true;
            }
        } else {
            for (std::size_t i = 0; i < fault_site_count; ++i) {
                if (siteTok == site_names[i]) {
                    Rule rule = proto;
                    rule.site = static_cast<FaultSite>(i);
                    rules.push_back(rule);
                    matched = true;
                    break;
                }
            }
        }
        if (!matched) {
            error = "fault rule '" + ruleText + "': unknown site '" +
                    siteTok + "'";
            return false;
        }
    }

    rules_ = std::move(rules);
    plan_ = rules_.empty() ? std::string() : plan;
    enabled_ = !rules_.empty();
    for (std::size_t i = 0; i < fault_site_count; ++i) {
        counters_.hits[i].store(0, std::memory_order_relaxed);
        counters_.fired[i].store(0, std::memory_order_relaxed);
    }
    return true;
}

bool
FaultInjector::configureFromEnv(std::string &error)
{
    const char *plan = std::getenv("NOSQ_FAULT_PLAN");
    if (!plan || !*plan)
        return true;
    return configure(plan, error);
}

FaultAction
FaultInjector::checkSlow(FaultSite site)
{
    auto idx = static_cast<std::size_t>(site);
    std::uint64_t hit =
        counters_.hits[idx].fetch_add(1, std::memory_order_relaxed) +
        1;
    FaultAction action = FaultAction::None;
    for (const Rule &rule : rules_) {
        if (rule.site != site)
            continue;
        if (rule.at ? hit == rule.at : hit % rule.period == 0) {
            action = rule.action;
            break;
        }
    }
    if (action != FaultAction::None)
        counters_.fired[idx].fetch_add(1, std::memory_order_relaxed);
    return action;
}

std::uint64_t
FaultInjector::hits(FaultSite site) const
{
    return counters_.hits[static_cast<std::size_t>(site)].load(
        std::memory_order_relaxed);
}

std::uint64_t
FaultInjector::fired(FaultSite site) const
{
    return counters_.fired[static_cast<std::size_t>(site)].load(
        std::memory_order_relaxed);
}

bool
FaultInjector::planned(FaultSite site) const
{
    for (const Rule &rule : rules_)
        if (rule.site == site)
            return true;
    return false;
}

std::string
FaultInjector::statusJson() const
{
    std::string out = "{";
    bool first = true;
    for (std::size_t i = 0; i < fault_site_count; ++i) {
        auto site = static_cast<FaultSite>(i);
        if (!planned(site))
            continue;
        if (!first)
            out += ",";
        first = false;
        out += "\"";
        out += site_names[i];
        out += "\":{\"hits\":";
        out += std::to_string(hits(site));
        out += ",\"fired\":";
        out += std::to_string(fired(site));
        out += "}";
    }
    out += "}";
    return out;
}

namespace {

/** Apply a socket-style action; true when the wrapper handled it. */
bool
applySocketFault(FaultAction action, int failErrno, ssize_t &rc,
                 std::size_t &count)
{
    switch (action) {
    case FaultAction::Fail:
        errno = failErrno;
        rc = -1;
        return true;
    case FaultAction::Eintr:
        errno = EINTR;
        rc = -1;
        return true;
    case FaultAction::Short:
        if (count > 1)
            count = 1; // fall through to the real (1-byte) syscall
        return false;
    default:
        return false;
    }
}

} // namespace

int
faultConnect(int fd, const ::sockaddr *addr, unsigned addrlen)
{
    FaultAction action =
        FaultInjector::global().check(FaultSite::SockConnect);
    ssize_t rc = 0;
    std::size_t dummy = 0;
    if (applySocketFault(action, ECONNREFUSED, rc, dummy))
        return static_cast<int>(rc);
    return ::connect(fd, addr, addrlen);
}

ssize_t
faultRead(int fd, void *buf, std::size_t count)
{
    FaultAction action =
        FaultInjector::global().check(FaultSite::SockRead);
    ssize_t rc = 0;
    if (applySocketFault(action, ECONNRESET, rc, count))
        return rc;
    return ::read(fd, buf, count);
}

ssize_t
faultSend(int fd, const void *buf, std::size_t count, int flags)
{
    FaultAction action =
        FaultInjector::global().check(FaultSite::SockWrite);
    ssize_t rc = 0;
    if (applySocketFault(action, EPIPE, rc, count))
        return rc;
    return ::send(fd, buf, count, flags);
}

pid_t
faultFork()
{
    FaultAction action =
        FaultInjector::global().check(FaultSite::WorkerFork);
    if (action == FaultAction::Fail) {
        errno = EAGAIN;
        return -1;
    }
    return ::fork();
}

} // namespace serve
} // namespace nosq
