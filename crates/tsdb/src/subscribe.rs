//! Live subscriptions: dashboards subscribe to measurements and receive
//! points as they are written, which is how the live-CARM panel and the
//! Fig. 7 event panels update in real time.

use crate::point::Point;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

/// Matches points against a subscription's interest.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// Measurement prefix to match (empty = all measurements).
    pub measurement_prefix: String,
    /// Required tag constraints (all must match).
    pub tags: Vec<(String, String)>,
}

impl Subscription {
    /// Subscribe to measurements starting with `prefix` (every measurement
    /// when empty).
    pub fn measurement(prefix: impl Into<String>) -> Self {
        Subscription {
            measurement_prefix: prefix.into(),
            tags: Vec::new(),
        }
    }

    /// Add a tag constraint.
    pub fn with_tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.tags.push((key.into(), value.into()));
        self
    }

    /// Whether a point is interesting to this subscription.
    pub(crate) fn matches(&self, point: &Point) -> bool {
        point.measurement.starts_with(&self.measurement_prefix)
            && self
                .tags
                .iter()
                .all(|(k, v)| point.tags.get(k).is_some_and(|tv| tv == v))
    }
}

/// Fan-out hub the engine publishes into.
#[derive(Debug, Default)]
pub(crate) struct SubscriptionHub {
    subscribers: Mutex<Vec<(Subscription, Sender<Point>)>>,
}

impl SubscriptionHub {
    /// Create an empty hub.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Register a subscription; returns the receiving end.
    pub(crate) fn subscribe(&self, sub: Subscription) -> Receiver<Point> {
        let (tx, rx) = unbounded();
        self.subscribers.lock().push((sub, tx));
        rx
    }

    /// Publish a point to all matching, still-connected subscribers.
    /// Disconnected subscribers are dropped lazily here.
    pub(crate) fn publish(&self, point: &Point) {
        let mut subs = self.subscribers.lock();
        subs.retain(|(sub, tx)| {
            if sub.matches(point) {
                // Send fails only when the receiver hung up; drop those.
                tx.send(point.clone()).is_ok()
            } else {
                // Non-matching subscribers are kept; disconnects are noticed
                // the next time a matching point is published.
                true
            }
        });
    }

    /// Number of live subscribers.
    pub(crate) fn len(&self) -> usize {
        self.subscribers.lock().len()
    }

    /// True when nobody is subscribed.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(m: &str, host: &str) -> Point {
        Point::new(m).tag("host", host).field("v", 1.0)
    }

    #[test]
    fn subscription_matching() {
        let s = Subscription::measurement("perfevent_").with_tag("host", "skx");
        assert!(s.matches(&pt("perfevent_hwcounters_x", "skx")));
        assert!(!s.matches(&pt("kernel_percpu", "skx")));
        assert!(!s.matches(&pt("perfevent_hwcounters_x", "icl")));
        assert!(Subscription::measurement("").matches(&pt("anything", "any")));
    }

    #[test]
    fn hub_fans_out_matching_points() {
        let hub = SubscriptionHub::new();
        let rx_all = hub.subscribe(Subscription::measurement(""));
        let rx_skx = hub.subscribe(Subscription::measurement("").with_tag("host", "skx"));
        hub.publish(&pt("m", "skx"));
        hub.publish(&pt("m", "icl"));
        assert_eq!(rx_all.try_iter().count(), 2);
        assert_eq!(rx_skx.try_iter().count(), 1);
    }

    #[test]
    fn disconnected_matching_subscriber_is_removed() {
        let hub = SubscriptionHub::new();
        let rx = hub.subscribe(Subscription::measurement(""));
        assert_eq!(hub.len(), 1);
        drop(rx);
        hub.publish(&pt("m", "a"));
        assert_eq!(hub.len(), 0);
    }
}
