//! The simulated network: latency, message loss, and partitions.

use crate::config::NetworkConfig;
use crate::event::{Event, EventQueue};
use crate::message::{Endpoint, Message, Payload};
use crate::metrics::SimMetrics;
use crate::time::SimTime;
use arbitree_core::DetMap;
use arbitree_quorum::SiteId;
use rand::Rng;

/// A network partition: endpoints in different groups cannot exchange
/// messages. Endpoints not present in the map are in group 0.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Partition {
    groups: DetMap<Endpoint, u32>,
}

impl Partition {
    /// A fully connected network.
    pub fn none() -> Self {
        Partition::default()
    }

    /// Assigns `endpoint` to `group`.
    pub fn assign(&mut self, endpoint: Endpoint, group: u32) -> &mut Self {
        self.groups.insert(endpoint, group);
        self
    }

    /// Convenience: split the given sites into group 1, everyone else
    /// (including all clients) stays in group 0.
    pub fn isolate_sites<I: IntoIterator<Item = SiteId>>(sites: I) -> Self {
        let mut p = Partition::default();
        for s in sites {
            p.assign(Endpoint::Site(s), 1);
        }
        p
    }

    /// The group of `endpoint` (default 0).
    pub fn group(&self, endpoint: Endpoint) -> u32 {
        self.groups.get(&endpoint).copied().unwrap_or(0)
    }

    /// Whether `a` and `b` can communicate.
    pub fn connected(&self, a: Endpoint, b: Endpoint) -> bool {
        self.group(a) == self.group(b)
    }
}

/// The message transport: applies latency, drops and partitions, and feeds
/// delivery events into the queue.
///
/// Behaviour can be overridden mid-run (drop bursts, latency spikes): a
/// scheduled [`crate::Event::NetOverride`] installs a temporary
/// [`NetworkConfig`] that masks the base one until cleared.
#[derive(Debug, Hash)]
pub struct Network {
    config: NetworkConfig,
    override_config: Option<NetworkConfig>,
    partition: Partition,
}

impl Network {
    /// Creates a network with the given behaviour.
    pub fn new(config: NetworkConfig) -> Self {
        Network {
            config,
            override_config: None,
            partition: Partition::none(),
        }
    }

    /// Installs (or clears, with [`Partition::none`]) a partition.
    pub fn set_partition(&mut self, partition: Partition) {
        self.partition = partition;
    }

    /// The current partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Installs (`Some`) or clears (`None`) a temporary behaviour override.
    /// While installed, the override fully replaces the base config.
    pub fn set_override(&mut self, override_config: Option<NetworkConfig>) {
        self.override_config = override_config;
    }

    /// The behaviour currently in force (override if installed, else base).
    pub fn effective_config(&self) -> &NetworkConfig {
        self.override_config.as_ref().unwrap_or(&self.config)
    }

    /// Sends a message: either schedules a delivery event (after a uniform
    /// random latency) or drops it (partition or random loss). Returns
    /// `true` if the message was scheduled.
    #[allow(clippy::too_many_arguments)] // transport call: src, dst, payload + infra handles
    pub fn send<R: Rng + ?Sized>(
        &self,
        now: SimTime,
        from: Endpoint,
        to: Endpoint,
        payload: Payload,
        queue: &mut EventQueue,
        metrics: &mut SimMetrics,
        rng: &mut R,
    ) -> bool {
        let config = *self.effective_config();
        metrics.messages_sent += 1;
        if !self.partition.connected(from, to) {
            metrics.dropped_partition += 1;
            return false;
        }
        if config.drop_probability > 0.0 && rng.gen::<f64>() < config.drop_probability {
            metrics.dropped_loss += 1;
            return false;
        }
        let span = config
            .max_latency
            .as_micros()
            .saturating_sub(config.min_latency.as_micros());
        let jitter = if span == 0 {
            0
        } else {
            rng.gen_range(0..=span)
        };
        let latency =
            crate::time::SimDuration::from_micros(config.min_latency.as_micros() + jitter);
        queue.schedule(
            now + latency,
            Event::Deliver(Message {
                from,
                to,
                payload,
                sent_at: now,
            }),
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ClientId;
    use crate::message::{ObjectId, OpId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn site(s: u32) -> Endpoint {
        Endpoint::Site(SiteId::new(s))
    }

    fn client(c: u32) -> Endpoint {
        Endpoint::Client(ClientId(c))
    }

    fn payload() -> Payload {
        Payload::ReadReq {
            op: OpId(1),
            obj: ObjectId(0),
        }
    }

    #[test]
    fn delivery_within_latency_bounds() {
        let net = Network::new(NetworkConfig::default());
        let mut q = EventQueue::new();
        let mut m = SimMetrics::default();
        let mut rng = StdRng::seed_from_u64(1);
        let now = SimTime::from_millis(1);
        for _ in 0..100 {
            assert!(net.send(now, client(0), site(1), payload(), &mut q, &mut m, &mut rng));
        }
        assert_eq!(m.messages_sent, 100);
        assert_eq!(m.messages_dropped(), 0);
        while let Some((t, _)) = q.pop() {
            let lat = (t - now).as_micros();
            assert!((100..=500).contains(&lat), "latency {lat}");
        }
    }

    #[test]
    fn drops_are_counted() {
        let cfg = NetworkConfig {
            drop_probability: 1.0,
            ..NetworkConfig::default()
        };
        let net = Network::new(cfg);
        let mut q = EventQueue::new();
        let mut m = SimMetrics::default();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!net.send(
            SimTime::ZERO,
            client(0),
            site(0),
            payload(),
            &mut q,
            &mut m,
            &mut rng
        ));
        assert_eq!(m.dropped_loss, 1);
        assert_eq!(m.dropped_partition, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn drop_causes_are_split() {
        let cfg = NetworkConfig {
            drop_probability: 1.0,
            ..NetworkConfig::default()
        };
        let mut net = Network::new(cfg);
        net.set_partition(Partition::isolate_sites([SiteId::new(1)]));
        let mut q = EventQueue::new();
        let mut m = SimMetrics::default();
        let mut rng = StdRng::seed_from_u64(8);
        // Cross-partition: counted as a partition drop, not a loss (the
        // partition check comes first).
        net.send(
            SimTime::ZERO,
            client(0),
            site(1),
            payload(),
            &mut q,
            &mut m,
            &mut rng,
        );
        // Same group: lost to the lossy link.
        net.send(
            SimTime::ZERO,
            client(0),
            site(0),
            payload(),
            &mut q,
            &mut m,
            &mut rng,
        );
        assert_eq!(m.dropped_partition, 1);
        assert_eq!(m.dropped_loss, 1);
        assert_eq!(m.messages_dropped(), 2);
    }

    #[test]
    fn override_masks_base_and_clears() {
        let mut net = Network::new(NetworkConfig::default());
        assert_eq!(net.effective_config().drop_probability, 0.0);
        let burst = NetworkConfig {
            drop_probability: 1.0,
            ..NetworkConfig::default()
        };
        net.set_override(Some(burst));
        let mut q = EventQueue::new();
        let mut m = SimMetrics::default();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(!net.send(
            SimTime::ZERO,
            client(0),
            site(0),
            payload(),
            &mut q,
            &mut m,
            &mut rng
        ));
        assert_eq!(m.dropped_loss, 1);
        net.set_override(None);
        assert!(net.send(
            SimTime::ZERO,
            client(0),
            site(0),
            payload(),
            &mut q,
            &mut m,
            &mut rng
        ));
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let mut net = Network::new(NetworkConfig::default());
        net.set_partition(Partition::isolate_sites([SiteId::new(1)]));
        let mut q = EventQueue::new();
        let mut m = SimMetrics::default();
        let mut rng = StdRng::seed_from_u64(3);
        // Client (group 0) → site 1 (group 1): dropped.
        assert!(!net.send(
            SimTime::ZERO,
            client(0),
            site(1),
            payload(),
            &mut q,
            &mut m,
            &mut rng
        ));
        // Client → site 0 (group 0): delivered.
        assert!(net.send(
            SimTime::ZERO,
            client(0),
            site(0),
            payload(),
            &mut q,
            &mut m,
            &mut rng
        ));
        // Healing the partition restores traffic.
        net.set_partition(Partition::none());
        assert!(net.send(
            SimTime::ZERO,
            client(0),
            site(1),
            payload(),
            &mut q,
            &mut m,
            &mut rng
        ));
    }

    #[test]
    fn partition_groups() {
        let p = Partition::isolate_sites([SiteId::new(3), SiteId::new(4)]);
        assert_eq!(p.group(site(3)), 1);
        assert_eq!(p.group(site(0)), 0);
        assert!(p.connected(site(3), site(4)));
        assert!(!p.connected(site(3), site(0)));
        assert!(p.connected(client(0), site(0)));
    }

    #[test]
    fn zero_jitter_latency() {
        let mut cfg = NetworkConfig::default();
        cfg.min_latency = cfg.max_latency;
        let net = Network::new(cfg);
        let mut q = EventQueue::new();
        let mut m = SimMetrics::default();
        let mut rng = StdRng::seed_from_u64(4);
        net.send(
            SimTime::ZERO,
            client(0),
            site(0),
            payload(),
            &mut q,
            &mut m,
            &mut rng,
        );
        let (t, _) = q.pop().unwrap();
        assert_eq!(t.as_micros(), cfg.max_latency.as_micros());
    }
}
