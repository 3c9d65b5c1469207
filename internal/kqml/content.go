package kqml

import (
	"infosleuth/internal/ontology"
)

// SubscribeContent asks a resource agent to notify the subscriber whenever
// the answer to the embedded query changes (the paper's subscription
// conversations: "allows the user to monitor certain events or changes in
// data").
type SubscribeContent struct {
	// SQL is the monitored query.
	SQL string `json:"sql"`
	// SubscriberName and SubscriberAddress identify where update
	// notifications go.
	SubscriberName    string `json:"subscriber_name"`
	SubscriberAddress string `json:"subscriber_address"`
}

// SubscribeAck confirms a subscription and carries the query's current
// answer as the baseline.
type SubscribeAck struct {
	// ID names the subscription for later cancellation.
	ID string `json:"id"`
	// Initial is the answer at subscription time.
	Initial SQLResult `json:"initial"`
}

// UpdateContent is the payload of an update notification from a resource
// agent to a subscriber.
type UpdateContent struct {
	// SubscriptionID names the subscription that fired.
	SubscriptionID string `json:"subscription_id"`
	// SQL is the monitored query.
	SQL string `json:"sql"`
	// Result is the query's new answer.
	Result SQLResult `json:"result"`
	// Seq is the resource's change-stream sequence number for the newest
	// event this notification covers; a subscriber can order and
	// deduplicate updates by it.
	Seq uint64 `json:"seq,omitempty"`
	// Coalesced counts change events folded into this notification under
	// load (the bounded queues coalesce to latest rather than block).
	Coalesced int `json:"coalesced,omitempty"`
}

// UpdateAck is a subscriber's typed acknowledgement of an update
// notification.
type UpdateAck struct {
	// SubscriptionID echoes the subscription that fired.
	SubscriptionID string `json:"subscription_id"`
	// Seq echoes the update's sequence number, when present.
	Seq uint64 `json:"seq,omitempty"`
}

// UnsubscribeContent cancels a standing query by subscription ID, under
// the unsubscribe performative: a message's meaning is in its performative.
type UnsubscribeContent struct {
	// ID is the subscription to cancel, as returned in SubscribeAck.
	ID string `json:"id"`
}

// UnsubscribeAck confirms a cancellation.
type UnsubscribeAck struct {
	// ID echoes the cancelled subscription.
	ID string `json:"id"`
}

// RecruitContent asks a broker to find the best provider for the embedded
// request and forward it there directly (KQML's recruit: the reply comes
// back through the broker rather than as a list of candidates).
type RecruitContent struct {
	// Query selects the provider.
	Query *ontology.Query `json:"query"`
	// Embedded is the message to deliver to the recruited agent.
	Embedded *Message `json:"embedded"`
}

// RecruitReply wraps the recruited agent's reply.
type RecruitReply struct {
	// Agent names the provider the broker selected.
	Agent string `json:"agent"`
	// Reply is the provider's response to the embedded message.
	Reply *Message `json:"reply"`
}

// OntologyRequest asks an ontology agent for a domain model by name.
type OntologyRequest struct {
	Name string `json:"name"`
}

// OntologyReply carries a domain model's class definitions.
type OntologyReply struct {
	Name    string           `json:"name"`
	Classes []ontology.Class `json:"classes"`
}
