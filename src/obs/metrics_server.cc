#include "obs/metrics_server.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "ckpt/ckpt.hh"
#include "obs/metrics.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace dramctrl {
namespace obs {

MetricsServer::MetricsServer(std::string spec) : spec_(std::move(spec))
{
    if (spec_.empty())
        fatal("empty metrics listen spec");
    if (spec_.find('/') != std::string::npos) {
        isUnix_ = true;
        sockPath_ = spec_;
        endpoint_ = "unix:" + sockPath_;
    } else {
        std::string port_str = spec_;
        auto colon = spec_.rfind(':');
        if (colon != std::string::npos)
            port_str = spec_.substr(colon + 1);
        char *end = nullptr;
        long p = std::strtol(port_str.c_str(), &end, 10);
        if (end == port_str.c_str() || *end != '\0' || p < 0 ||
            p > 65535)
            fatal("bad metrics listen spec '%s': expected a TCP port "
                  "or a Unix socket path",
                  spec_.c_str());
        port_ = static_cast<int>(p);
        endpoint_ = "tcp:127.0.0.1:" + port_str;
    }
}

MetricsServer::~MetricsServer() { stop(); }

void
MetricsServer::start()
{
    DC_ASSERT(!running_, "metrics server started twice");
    if (isUnix_) {
        ::unlink(sockPath_.c_str());
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            fatal("metrics server: socket(): %s", std::strerror(errno));
        sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        if (sockPath_.size() >= sizeof(addr.sun_path))
            fatal("metrics socket path '%s' too long",
                  sockPath_.c_str());
        std::strncpy(addr.sun_path, sockPath_.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0)
            fatal("metrics server: bind(%s): %s", sockPath_.c_str(),
                  std::strerror(errno));
    } else {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            fatal("metrics server: socket(): %s", std::strerror(errno));
        int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(port_));
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0)
            fatal("metrics server: bind(port %d): %s", port_,
                  std::strerror(errno));
        socklen_t len = sizeof(addr);
        if (::getsockname(listenFd_,
                          reinterpret_cast<sockaddr *>(&addr),
                          &len) == 0) {
            port_ = ntohs(addr.sin_port);
            endpoint_ = "tcp:127.0.0.1:" + std::to_string(port_);
        }
    }
    if (::listen(listenFd_, 8) < 0)
        fatal("metrics server: listen(%s): %s", endpoint_.c_str(),
              std::strerror(errno));
    stop_ = false;
    thread_ = std::thread([this] { acceptLoop(); });
    running_ = true;
}

void
MetricsServer::stop()
{
    if (!running_)
        return;
    stop_ = true;
    ::shutdown(listenFd_, SHUT_RDWR);
    if (thread_.joinable())
        thread_.join();
    ::close(listenFd_);
    listenFd_ = -1;
    if (isUnix_)
        ::unlink(sockPath_.c_str());
    running_ = false;
}

void
MetricsServer::publish(std::string prom, std::string json)
{
    std::lock_guard<std::mutex> lock(snapMutex_);
    prom_ = std::move(prom);
    json_ = std::move(json);
}

void
MetricsServer::publish(const MetricsRegistry &registry)
{
    std::ostringstream prom;
    registry.writeProm(prom);
    std::ostringstream json;
    registry.writeJson(json);
    publish(prom.str(), json.str());
}

void
MetricsServer::acceptLoop()
{
    while (!stop_) {
        pollfd pfd{listenFd_, POLLIN, 0};
        int n = ::poll(&pfd, 1, 100);
        if (stop_)
            break;
        if (n <= 0)
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        serveClient(fd);
        ::close(fd);
    }
}

namespace {

void
writeAll(int fd, const std::string &s)
{
    std::size_t off = 0;
    while (off < s.size()) {
        ssize_t n = ::write(fd, s.data() + off, s.size() - off);
        if (n <= 0)
            return;
        off += static_cast<std::size_t>(n);
    }
}

} // namespace

void
MetricsServer::serveClient(int fd)
{
    // Give the client a short window to send a request line; a silent
    // client (nc with no input) just gets the Prometheus body raw.
    char buf[1024];
    std::string req;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 200) > 0) {
        ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
        if (n > 0)
            req.assign(buf, static_cast<std::size_t>(n));
    }

    bool want_json = req.find("/json") != std::string::npos;
    bool http = req.compare(0, 4, "GET ") == 0 ||
                req.compare(0, 5, "HEAD ") == 0;

    std::string body;
    {
        std::lock_guard<std::mutex> lock(snapMutex_);
        body = want_json ? json_ : prom_;
    }

    if (http) {
        std::string head =
            "HTTP/1.0 200 OK\r\nContent-Type: ";
        head += want_json ? "application/json"
                          : "text/plain; version=0.0.4";
        head += "\r\nContent-Length: " + std::to_string(body.size()) +
                "\r\nConnection: close\r\n\r\n";
        writeAll(fd, head);
        if (req.compare(0, 5, "HEAD ") == 0)
            return;
    }
    writeAll(fd, body);
}

MetricsPublisher::MetricsPublisher(
    Simulator &sim, std::string name, MetricsRegistry &registry,
    MetricsServer &server, Tick interval,
    std::function<void(MetricsRegistry &)> extra)
    : SimObject(sim, std::move(name)), registry_(registry),
      server_(server), interval_(interval), extra_(std::move(extra)),
      sampleEvent_([this] { sampleAndReschedule(); },
                   this->name() + ".sampleEvent", Event::kStatsPriority)
{
    if (interval_ == 0)
        fatal("metrics publisher '%s': zero interval",
              this->name().c_str());
}

MetricsPublisher::~MetricsPublisher()
{
    // The publish event reschedules itself forever; take it off the
    // agenda so the queue never sees a dangling event.
    if (sampleEvent_.scheduled())
        deschedule(sampleEvent_);
}

void
MetricsPublisher::startup()
{
    publishNow();
    schedule(sampleEvent_, curTick() + interval_);
}

void
MetricsPublisher::publishNow()
{
    registry_.gauge("sim.tick", "current simulated tick")
        .set(static_cast<double>(curTick()));
    registry_
        .gauge("sim.eventq_depth", "events currently scheduled")
        .set(static_cast<double>(eventq().size()));
    if (extra_)
        extra_(registry_);
    server_.publish(registry_);
}

void
MetricsPublisher::sampleAndReschedule()
{
    publishNow();
    schedule(sampleEvent_, curTick() + interval_);
}

void
MetricsPublisher::checkpoint(ckpt::Io &io)
{
    io.tick("interval", interval_);
    io.event("sampleEvent", eventq(), sampleEvent_);
}

} // namespace obs
} // namespace dramctrl
