#include "net/router.h"

#include <algorithm>
#include <bit>

#include "common/log.h"
#include "net/link.h"

namespace hornet::net {

Router::Router(NodeId id, const std::vector<NodeId> &neighbors,
               const RouterConfig &cfg, Rng *rng, TileStats *stats,
               common::Arena *arena)
    : id_(id), num_net_ports_(static_cast<std::uint32_t>(neighbors.size())),
      cfg_(cfg), rng_(rng), stats_(stats)
{
    if (rng_ == nullptr || stats_ == nullptr)
        fatal("router requires rng and stats sinks");
    if (cfg_.net_vcs > kMaxVcsPerPort || cfg_.cpu_vcs > kMaxVcsPerPort)
        fatal(strcat("router ", id_, ": at most ", kMaxVcsPerPort,
                     " VCs per port (one occupancy-mask word), got ",
                     cfg_.net_vcs, " network / ", cfg_.cpu_vcs, " CPU"));
    table_ = RoutingTable(id);

    // The router's buffers and egress ports go back-to-back into the
    // caller's arena, so all of one shard's hot flit storage ends up
    // contiguous. Standalone routers fall back to a private arena (one
    // router's worth of storage fits a small chunk).
    if (arena == nullptr) {
        own_arena_ = std::make_unique<common::Arena>(
            std::size_t{64} * 1024);
        arena = own_arena_.get();
    }
    arena_ = arena;

    // Ingress ports: one per neighbor plus the CPU injection port.
    ingress_.resize(num_net_ports_ + 1);
    for (std::uint32_t p = 0; p < num_net_ports_; ++p) {
        ingress_[p].prev_node = neighbors[p];
        for (std::uint32_t v = 0; v < cfg_.net_vcs; ++v) {
            ingress_[p].vcs.push_back(
                arena->make<VcBuffer>(cfg_.net_vc_capacity, arena));
        }
        ingress_[p].state.resize(cfg_.net_vcs);
    }
    IngressPort &cpu_in = ingress_[num_net_ports_];
    cpu_in.prev_node = id_;
    for (std::uint32_t v = 0; v < cfg_.cpu_vcs; ++v) {
        cpu_in.vcs.push_back(
            arena->make<VcBuffer>(cfg_.cpu_vc_capacity, arena));
    }
    cpu_in.state.resize(cfg_.cpu_vcs);

    // Egress ports: network ones are wired later via connect_egress;
    // the CPU egress drains into internally owned ejection buffers.
    for (std::uint32_t p = 0; p < num_net_ports_; ++p) {
        EgressPort *ep = arena->make<EgressPort>();
        ep->next_node = neighbors[p];
        ep->bandwidth = cfg_.link_bandwidth;
        egress_.push_back(ep);
    }
    for (std::uint32_t v = 0; v < cfg_.cpu_vcs; ++v)
        ejection_.push_back(
            arena->make<VcBuffer>(cfg_.cpu_vc_capacity, arena));
    EgressPort *cpu_ep = arena->make<EgressPort>();
    cpu_ep->next_node = id_;
    cpu_ep->is_cpu = true;
    cpu_ep->link_latency = 1;
    cpu_ep->bandwidth = cfg_.link_bandwidth;
    for (auto *b : ejection_)
        cpu_ep->downstream.push_back(b);
    cpu_ep->vc_state.resize(cfg_.cpu_vcs);
    egress_.push_back(cpu_ep);
    index_out_vcs();

    // One occupancy-mask word per ingress port and one wake record per
    // ingress (port, vc), each record installed as its buffer's wake
    // target for the router's lifetime. Both are sized here, once,
    // and never resized: the buffers point at the records.
    ingress_mask_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(ingress_.size());
    for (std::size_t p = 0; p < ingress_.size(); ++p)
        ingress_mask_[p].store(0, std::memory_order_relaxed);
    std::size_t total_vcs = 0;
    for (const auto &ip : ingress_)
        total_vcs += ip.vcs.size();
    wake_records_.resize(total_vcs);
    std::size_t r = 0;
    for (PortId p = 0; p < ingress_.size(); ++p) {
        for (VcId v = 0; v < ingress_[p].vcs.size(); ++v, ++r) {
            wake_records_[r].router = this;
            wake_records_[r].port = p;
            wake_records_[r].vc = v;
            ingress_[p].vcs[v]->set_wake_target(&wake_records_[r]);
        }
    }
}

void
Router::forward_ingress_wakes(Wakeable *consumer)
{
    // Records are port-major and the network ports come first, so the
    // first num_net_ports_ * net_vcs records are theirs.
    const std::size_t net_records =
        std::size_t{num_net_ports_} * cfg_.net_vcs;
    for (std::size_t r = 0; r < net_records; ++r)
        wake_records_[r].next = consumer;
}

bool
Router::ingress_masks_cover_buffers() const
{
    for (PortId p = 0; p < ingress_.size(); ++p) {
        const std::uint64_t m =
            ingress_mask_[p].load(std::memory_order_acquire);
        for (VcId v = 0; v < ingress_[p].vcs.size(); ++v)
            if (ingress_[p].vcs[v]->size_raw() != 0 &&
                (m & (std::uint64_t{1} << v)) == 0)
                return false;
    }
    return true;
}

Cycle
Router::take_pending_wake()
{
    Cycle p = local_pending_wake_;
    local_pending_wake_ = kNoEvent;
    if (pending_wake_.load(std::memory_order_acquire) != kNoEvent)
        p = std::min(p, pending_wake_.exchange(kNoEvent,
                                               std::memory_order_acq_rel));
    return p;
}

bool
Router::has_ejection_flits() const
{
    for (const auto &b : ejection_)
        if (b->size_raw() != 0)
            return true;
    return false;
}

void
Router::connect_egress(PortId port, NodeId next_node,
                       std::vector<VcBuffer *> downstream,
                       Cycle link_latency)
{
    if (port >= num_net_ports_)
        fatal(strcat("router ", id_, ": connect_egress on bad port ", port));
    EgressPort &ep = *egress_[port];
    if (ep.next_node != next_node)
        fatal(strcat("router ", id_, ": egress port ", port,
                     " faces node ", ep.next_node, ", not ", next_node));
    if (link_latency == 0)
        fatal("link latency must be >= 1 cycle");
    ep.downstream = std::move(downstream);
    ep.vc_state.assign(ep.downstream.size(), EgressVcState{});
    ep.link_latency = link_latency;
    index_out_vcs();
}

void
Router::index_out_vcs()
{
    out_vc_base_.resize(egress_.size());
    total_out_vcs_ = 0;
    for (std::size_t e = 0; e < egress_.size(); ++e) {
        out_vc_base_[e] = total_out_vcs_;
        total_out_vcs_ += egress_[e]->vc_state.size();
    }
}

VcBuffer &
Router::ingress_buffer(PortId port, VcId vc)
{
    return *ingress_.at(port).vcs.at(vc);
}

std::vector<VcBuffer *>
Router::ingress_buffers(PortId port)
{
    std::vector<VcBuffer *> out;
    for (auto *b : ingress_.at(port).vcs)
        out.push_back(b);
    return out;
}

VcBuffer &
Router::injection_buffer(VcId vc)
{
    return *ingress_[num_net_ports_].vcs.at(vc);
}

VcBuffer &
Router::ejection_buffer(VcId vc)
{
    return *ejection_.at(vc);
}

void
Router::reset_run_state()
{
    if (has_buffered_flits())
        panic(strcat("router ", id_,
                     ": reset_run_state with flits still buffered"));
    for (auto &ip : ingress_)
        ip.state.assign(ip.state.size(), VcState{});
    for (auto *ep : egress_) {
        ep->vc_state.assign(ep->vc_state.size(), EgressVcState{});
        ep->bandwidth = cfg_.link_bandwidth;
        for (auto &w : ep->demand)
            w.store(0, std::memory_order_relaxed);
    }
    pending_releases_.clear();
    pending_wake_.store(kNoEvent, std::memory_order_relaxed);
    local_pending_wake_ = kNoEvent;
}

void
Router::pool_egress(PortId port, const Router &peer, PortId peer_port,
                    std::uint32_t pool)
{
    EgressPort &ep = *egress_.at(port);
    ep.peer = peer.egress_.at(peer_port);
    ep.low_end = id_ < peer.id_;
    ep.pool = pool;
}

std::uint32_t
Router::egress_free_space(PortId port) const
{
    const EgressPort &ep = *egress_.at(port);
    std::uint32_t total = 0;
    for (const auto *b : ep.downstream)
        total += b->free_slots();
    return total;
}

PortId
Router::egress_port_to(NodeId next) const
{
    if (next == id_)
        return cpu_port();
    for (std::uint32_t q = 0; q < num_net_ports_; ++q)
        if (egress_[q]->next_node == next)
            return q;
    panic(strcat("router ", id_, ": route to non-neighbor ", next, " (",
                 table_.describe(), ")"));
}

void
Router::do_route_compute(IngressPort &ip, VcState &st, const Flit &f)
{
    // One route() serves both the option scan and the weighted pick
    // below (pick_from). Destination entries keep the flit's flow.
    const auto &opts = table_.route(ip.prev_node, f.flow, f.dst);

    const RouteResult *chosen = nullptr;
    if (cfg_.adaptive_routing && opts.size() > 1) {
        // Adaptive: among the table's candidates pick the next hop with
        // the most downstream credit; ties broken randomly. Each
        // option's credit is read once: under loose sync another
        // shard's commit can raise it while this scan runs.
        std::uint32_t best = 0;
        auto &maxima = scratch_maxima_;
        maxima.clear();
        for (const auto &o : opts) {
            const std::uint32_t space =
                egress_free_space(egress_port_to(o.next_node));
            if (maxima.empty() || space > best) {
                best = space;
                maxima.clear();
                maxima.push_back(&o);
            } else if (space == best) {
                maxima.push_back(&o);
            }
        }
        chosen = maxima.size() == 1 ? maxima.front()
                                    : maxima[rng_->below(maxima.size())];
    } else {
        chosen = &table_.pick_from(opts, *rng_);
    }

    st.next_node = chosen->next_node;
    st.next_flow =
        chosen->next_flow == kKeepFlow ? f.flow : chosen->next_flow;
    st.out_port = egress_port_to(chosen->next_node);
    st.route_valid = true;
}

bool
Router::try_vc_allocate(IngressPort &ip, VcState &st, const Flit &f,
                        Cycle now)
{
    EgressPort &ep = *egress_[st.out_port];
    if (ep.downstream.empty())
        panic(strcat("router ", id_, ": egress port ", st.out_port,
                     " not wired (VCA ", vca_table_.describe(), ")"));

    VcaKey key{ip.prev_node, f.flow, st.next_node, st.next_flow};
    const auto *opts = vca_table_.lookup(key);

    // Build the candidate set: the table's entries, or every VC of the
    // egress port with equal weight (pure dynamic VCA).
    scratch_vcs_.clear();
    auto &weights = scratch_weights_;
    weights.clear();
    if (opts != nullptr) {
        for (const auto &o : *opts) {
            if (o.vc < ep.vc_state.size()) {
                scratch_vcs_.push_back(o.vc);
                weights.push_back(o.weight);
            }
        }
    } else {
        for (VcId v = 0; v < ep.vc_state.size(); ++v) {
            scratch_vcs_.push_back(v);
            weights.push_back(1.0);
        }
    }
    if (scratch_vcs_.empty())
        return false;

    auto grant = [&](VcId vc) {
        ep.vc_state[vc].owned = true;
        ep.vc_state[vc].owner_packet = f.packet;
        ep.vc_state[vc].owner_flow = st.next_flow;
        st.vc_allocated = true;
        st.out_vc = vc;
        st.alloc_cycle = now;
        ++stats_->va_grants;
    };

    auto &grantable = scratch_grantable_;
    auto &gweights = scratch_gweights_;
    grantable.clear();
    gweights.clear();

    if (cfg_.vca_mode == VcaMode::Edvca) {
        // EDVCA (paper II-A3 / [14]): a flow may occupy at most one VC
        // chain per port. If any candidate VC is associated with this
        // flow (owned by it, or holding only its flits), the packet
        // must use one of those; otherwise it may claim an empty VC.
        bool flow_associated = false;
        for (std::size_t i = 0; i < scratch_vcs_.size(); ++i) {
            VcId vc = scratch_vcs_[i];
            const auto &evs = ep.vc_state[vc];
            bool assoc =
                (evs.owned && evs.owner_flow == st.next_flow) ||
                (!ep.downstream[vc]->logically_empty() &&
                 ep.downstream[vc]->exclusively_holds(st.next_flow));
            if (assoc) {
                if (!flow_associated) {
                    flow_associated = true;
                    grantable.clear();
                    gweights.clear();
                }
                if (!evs.owned) {
                    grantable.push_back(vc);
                    gweights.push_back(weights[i]);
                }
            } else if (!flow_associated) {
                if (!evs.owned && ep.downstream[vc]->logically_empty()) {
                    grantable.push_back(vc);
                    gweights.push_back(weights[i]);
                }
            }
        }
    } else if (cfg_.vca_mode == VcaMode::Faa) {
        // Flow-aware allocation approximation: among free candidates
        // pick the VC with the most downstream space, ties random.
        std::uint32_t best = 0;
        for (std::size_t i = 0; i < scratch_vcs_.size(); ++i) {
            VcId vc = scratch_vcs_[i];
            if (ep.vc_state[vc].owned)
                continue;
            std::uint32_t space = ep.downstream[vc]->free_slots();
            if (grantable.empty() || space > best) {
                best = space;
                grantable.clear();
                gweights.clear();
                grantable.push_back(vc);
                gweights.push_back(1.0);
            } else if (space == best) {
                grantable.push_back(vc);
                gweights.push_back(1.0);
            }
        }
    } else {
        // Dynamic or StaticSet: weighted random among free candidates.
        for (std::size_t i = 0; i < scratch_vcs_.size(); ++i) {
            VcId vc = scratch_vcs_[i];
            if (!ep.vc_state[vc].owned) {
                grantable.push_back(vc);
                gweights.push_back(weights[i]);
            }
        }
    }

    if (grantable.empty())
        return false;
    VcId vc = grantable.size() == 1
                  ? grantable.front()
                  : grantable[rng_->pick_weighted(gweights)];
    grant(vc);
    return true;
}

void
Router::posedge(Cycle now)
{
    // Pooled ports take this cycle's share of their bidirectional link
    // (paper II-A4) from both ends' demand of the previous cycle; the
    // peer computes the same split from the same two words. Every
    // other port keeps its configured bandwidth.
    for (auto *ep : egress_) {
        if (ep->peer == nullptr)
            continue;
        const std::uint32_t mine = read_demand(*ep, now - 1);
        const std::uint32_t theirs = read_demand(*ep->peer, now - 1);
        ep->bandwidth = ep->low_end
                            ? link_split(mine, theirs, ep->pool)
                            : ep->pool - link_split(theirs, mine, ep->pool);
    }

    // ------------------------------------------------------------------
    // Stage A: route computation + VC allocation for packets whose head
    // flit is at the front of a VC buffer. The order in which
    // next-in-line packets are considered is randomized (paper II-A5).
    //
    // The walk visits only the occupancy masks' set bits, in ascending
    // (port, vc) order — the order of a full scan, which likewise only
    // ever finds occupied buffers — so the candidate set, and hence
    // every PRNG draw below, is that of a scan over every buffer.
    // ------------------------------------------------------------------
    auto &cands = scratch_candidates_;
    cands.clear();
    for (PortId p = 0; p < ingress_.size(); ++p) {
        IngressPort &ip = ingress_[p];
        std::uint64_t m = ingress_mask_[p].load(std::memory_order_acquire);
        while (m != 0) {
            const VcId v = static_cast<VcId>(std::countr_zero(m));
            m &= m - 1;
            VcState &st = ip.state[v];
            if (st.front == nullptr)
                st.front = ip.vcs[v]->front_ready(now);
            if (st.front != nullptr)
                cands.emplace_back(p, v);
            else if (ip.vcs[v]->empty_raw())
                settle_ingress_bit(p, v); // stale bit: drained
        }
    }
    // Nothing routable and nothing to release: nothing to do, and no
    // demand to publish. (Stage A/B over an empty candidate set touch
    // no state and draw nothing from the PRNG, so this early exit is
    // bitwise neutral.)
    if (cands.empty() && pending_releases_.empty())
        return;
    rng_->shuffle(cands);

    for (auto [p, v] : cands) {
        IngressPort &ip = ingress_[p];
        VcState &st = ip.state[v];
        const Flit &f = *st.front;
        if (!st.route_valid) {
            if (!f.head)
                panic(strcat("router ", id_,
                             ": body flit at VC front without a route"));
            do_route_compute(ip, st, f);
        }
        if (!st.vc_allocated) {
            if (!try_vc_allocate(ip, st, f, now))
                ++stats_->va_stalls;
        }
    }

    // ------------------------------------------------------------------
    // Stage B: switch arbitration + switch traversal, per flit. A flit
    // is eligible once its packet's VA happened in an earlier cycle.
    // Constraints: one flit per ingress port per cycle (crossbar input),
    // per-egress bandwidth (link), one flit per downstream VC per cycle,
    // downstream credit, and the total crossbar bandwidth.
    // ------------------------------------------------------------------
    auto &sb = scratch_sb_;
    sb.clear();
    auto &demand = scratch_demand_;
    demand.assign(egress_.size(), 0);
    for (auto [p, v] : cands) {
        VcState &st = ingress_[p].state[v];
        if (st.vc_allocated && st.alloc_cycle < now) {
            sb.emplace_back(p, v);
            ++demand[st.out_port];
        }
    }
    rng_->shuffle(sb);

    auto &in_port_used = scratch_in_port_used_;
    in_port_used.assign(ingress_.size(), 0);
    auto &eg_bw_left = scratch_eg_bw_left_;
    eg_bw_left.resize(egress_.size());
    for (std::size_t e = 0; e < egress_.size(); ++e)
        eg_bw_left[e] = egress_[e]->bandwidth;
    // Downstream-VC single-write flags, flattened over all egress
    // ports (out_vc_base_[e] + vc indexes port e's VC vc).
    const auto &vc_base = out_vc_base_;
    auto &out_vc_used = scratch_out_vc_used_;
    out_vc_used.assign(total_out_vcs_, 0);
    std::uint32_t xbar_left =
        cfg_.xbar_bandwidth ? cfg_.xbar_bandwidth : ~0u;

    for (auto [p, v] : sb) {
        IngressPort &ip = ingress_[p];
        VcState &st = ip.state[v];
        EgressPort &ep = *egress_[st.out_port];

        if (in_port_used[p] != 0 || xbar_left == 0 ||
            eg_bw_left[st.out_port] == 0 ||
            out_vc_used[vc_base[st.out_port] + st.out_vc] != 0) {
            ++stats_->sa_stalls;
            continue;
        }
        if (ep.downstream[st.out_vc]->free_slots() == 0) {
            ++stats_->credit_stalls;
            continue;
        }

        // ST: move the flit across the crossbar and onto the link.
        Flit f = ip.vcs[v]->pop();
        st.front = nullptr;
        popped_dirty_.emplace_back(p, v);
        in_port_used[p] = 1;
        --eg_bw_left[st.out_port];
        out_vc_used[vc_base[st.out_port] + st.out_vc] = 1;
        if (xbar_left != ~0u)
            --xbar_left;

        ++stats_->buffer_reads;
        ++stats_->buffer_writes; // booked for the downstream write
        ++stats_->xbar_transits;
        ++stats_->sa_grants;

        f.latency += (now - f.arrival_cycle) + ep.link_latency;
        f.arrival_cycle = now + ep.link_latency;
        if (!ep.is_cpu) {
            f.flow = st.next_flow;
            ++f.hops;
            ++stats_->link_transits;
        }
        ep.downstream[st.out_vc]->push(f);

        if (ep.is_cpu) {
            // Departed the last network egress port: sample delivered-
            // traffic statistics from the counters carried in the flit.
            ++stats_->flits_delivered;
            stats_->flit_latency.add(static_cast<double>(f.latency));
            if (flow_stats_ != nullptr)
                ++flow_stats_->at(f.original_flow).flits_delivered;
            if (f.tail) {
                // Packet latency spans head injection to tail delivery:
                // the tail's carried latency plus its (source-local)
                // injection offset behind the head.
                const double pkt_lat =
                    static_cast<double>(f.latency + f.inject_offset);
                ++stats_->packets_delivered;
                stats_->packet_latency.add(pkt_lat);
                stats_->packet_latency_hist.add(pkt_lat);
                if (flow_stats_ != nullptr) {
                    auto &fs = flow_stats_->at(f.original_flow);
                    ++fs.packets_delivered;
                    fs.packet_latency.add(pkt_lat);
                }
            }
        }

        if (f.tail) {
            // Release the next-hop VC at the coming negedge and reset
            // the per-VC packet state for the next packet.
            pending_releases_.emplace_back(st.out_port, st.out_vc);
            st = VcState{};
        }
    }

    // Publish the pooled ports' demand for the next cycle's split.
    for (PortId e = 0; e < egress_.size(); ++e)
        publish_demand(e, demand[e], now);
}

void
Router::negedge(Cycle)
{
    // Only buffers popped this cycle hold staged pops (the one-flit-
    // per-ingress-port crossbar constraint bounds the list by the port
    // count); committing an un-popped buffer would be a no-op. Settling
    // after the commit retires the occupancy bit of drained buffers.
    for (auto [p, v] : popped_dirty_) {
        ingress_[p].vcs[v]->commit_negedge();
        if (ingress_[p].vcs[v]->size_raw() == 0)
            settle_ingress_bit(p, v);
    }
    popped_dirty_.clear();
    for (auto [p, v] : pending_releases_)
        egress_[p]->vc_state[v].owned = false;
    pending_releases_.clear();
}

bool
Router::has_buffered_flits() const
{
    // Exact, not conservative: a set bit only counts after it survives
    // a settle against the buffer, so the answer always matches a full
    // scan (the fold feeds Tile::busy and hence fast-forward decisions,
    // which must not depend on the scheduler).
    for (PortId p = 0; p < ingress_.size(); ++p) {
        std::uint64_t m = ingress_mask_[p].load(std::memory_order_acquire);
        while (m != 0) {
            const VcId v = static_cast<VcId>(std::countr_zero(m));
            m &= m - 1;
            if (ingress_[p].vcs[v]->size_raw() != 0)
                return true;
            settle_ingress_bit(p, v);
        }
    }
    return has_ejection_flits();
}

} // namespace hornet::net
