"""Litemset phase substrate: customer-support Apriori over an itemset trie."""
