/**
 * @file
 * Live introspection endpoint.
 *
 * A MetricsServer listens on a Unix-domain or loopback-TCP socket and
 * serves the most recently published metrics snapshot — Prometheus
 * text by default, JSON when the request asks for /json. It never
 * touches simulator state itself: the simulation thread periodically
 * renders the MetricsRegistry (see MetricsPublisher below) and hands
 * the finished text to the server, so a slow or hostile client can
 * never stall or race the simulation.
 *
 * The listen spec selects the transport: anything containing '/' is a
 * Unix socket path; otherwise it is a TCP port (optionally
 * "host:port") bound on the loopback interface. Port 0 binds an
 * ephemeral port, readable back through port().
 *
 * Both `curl` and `nc` work as clients: requests that look like HTTP
 * get minimal HTTP/1.0 response framing, a bare connection (netcat
 * with no input) is served the raw Prometheus body after a short
 * grace period.
 */

#ifndef DRAMCTRL_OBS_METRICS_SERVER_H
#define DRAMCTRL_OBS_METRICS_SERVER_H

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "sim/sim_object.hh"

namespace dramctrl {
namespace obs {

class MetricsRegistry;

class MetricsServer
{
  public:
    /** @param spec listen spec; see file comment. */
    explicit MetricsServer(std::string spec);
    ~MetricsServer();

    MetricsServer(const MetricsServer &) = delete;
    MetricsServer &operator=(const MetricsServer &) = delete;

    /** Bind, listen and start the accept thread; fatal() on error. */
    void start();

    /** Stop the accept thread and close the socket. Idempotent. */
    void stop();

    bool running() const { return running_; }

    /** Human-readable endpoint, e.g. "unix:/tmp/m.sock". */
    const std::string &endpoint() const { return endpoint_; }

    /** Actual TCP port bound (0 for Unix sockets). */
    int port() const { return port_; }

    /** Swap in a freshly rendered snapshot (any thread). */
    void publish(std::string prom, std::string json);

    /** Render @p registry in both formats and publish it. */
    void publish(const MetricsRegistry &registry);

  private:
    void acceptLoop();
    void serveClient(int fd);

    std::string spec_;
    bool isUnix_ = false;
    std::string sockPath_;
    int port_ = 0;
    std::string endpoint_;

    int listenFd_ = -1;
    std::thread thread_;
    std::atomic<bool> stop_{false};
    bool running_ = false;

    std::mutex snapMutex_;
    std::string prom_;
    std::string json_;
};

/**
 * Periodic bridge from a simulation to a MetricsServer: a repeating
 * event that refreshes the built-in liveness gauges (current tick,
 * event-queue depth), runs an optional caller hook for tool-specific
 * gauges (per-channel queue occupancy, generator progress), renders
 * the registry and publishes the result.
 */
class MetricsPublisher : public SimObject
{
  public:
    /**
     * @param extra optional hook run before each publication, on the
     *              simulation thread, to refresh caller-owned gauges.
     */
    MetricsPublisher(Simulator &sim, std::string name,
                     MetricsRegistry &registry, MetricsServer &server,
                     Tick interval,
                     std::function<void(MetricsRegistry &)> extra = {});
    ~MetricsPublisher() override;

    void startup() override;

    /** Refresh gauges and publish a snapshot immediately. */
    void publishNow();

    void checkpoint(ckpt::Io &io) override;

  private:
    void sampleAndReschedule();

    MetricsRegistry &registry_;
    MetricsServer &server_;
    Tick interval_;
    std::function<void(MetricsRegistry &)> extra_;
    EventFunctionWrapper sampleEvent_;
};

} // namespace obs
} // namespace dramctrl

#endif // DRAMCTRL_OBS_METRICS_SERVER_H
