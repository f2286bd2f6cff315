"""Parse a document context into condition groups.

Support documents arrive as a flat stream of tagged elements. The
parser reads the heading/list nesting from the tags in one pass, treats
the elements without children as conditions, and joins each one's
ancestor texts into the result its group guards. Each group is emitted
as soon as the element that ends it has been read.
"""

from collections import Counter

from condlogic import HtmlElement, group_elements

rows = [
    ("h1", "Overview"),
    ("p", "This guide explains the support grant."),
    ("h2", "Eligibility"),
    ("p", "You must meet all of the following:"),
    ("li", "you live in the council area"),
    ("li", "you receive a qualifying benefit"),
    ("h2", "How much you get"),
    ("p", "Up to 1200 per household."),
]
elements = [HtmlElement(tag, text) for tag, text in rows]

print("=== tagged elements ===\n")
for element in elements:
    print(f"  [{element.tag}] {element.text}")
print()

print("=== condition groups ===\n")
depths = Counter()
for group in group_elements(elements, depths):
    print(f"{group.result_id} ({group.logical_type.value})")
    print(f"  result: {group.result_text or '(document root)'}")
    for condition in group.conditions:
        print(f"  {condition.id}: {condition.text}")
    print()

print("=== leaf depths (1 = top level) ===\n")
for depth, n in sorted(depths.items()):
    print(f"  depth {depth}: {n} condition(s)")
